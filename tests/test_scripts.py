"""scripts/make_table.py regenerates the bundled data byte for byte.

The script checks every bundled diagram against published Alexander
polynomials, higher Alexander polynomials and determinants through
`classical_alexander`, so it also guards the classical path."""

import importlib.util
from pathlib import Path

from support import bundled_table_path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "make_table.py"


def load_script():
    spec = importlib.util.spec_from_file_location("make_table", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_make_table_regenerates_the_bundled_files(tmp_path, capsys):
    load_script().main(str(tmp_path))
    out = capsys.readouterr().out
    assert "wrote" in out and "FAIL" not in out
    data = bundled_table_path().parent
    for name in ("knots.csv", "rho0.json"):
        assert (tmp_path / name).read_bytes() == (data / name).read_bytes()
