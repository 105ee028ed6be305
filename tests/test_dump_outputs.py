"""The output-equivalence tool, run on this tree at the benchmark's smoke
sizes."""

import importlib.util
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]


def load_tool():
    spec = importlib.util.spec_from_file_location(
        "dump_outputs", ROOT / "tools" / "dump_outputs.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_two_dumps_of_the_tree_are_equal(tmp_path, capsys):
    tool = load_tool()
    first, second = tmp_path / "a.npz", tmp_path / "b.npz"
    np.savez(first, **tool.dump(ROOT, "SMOKE"))
    arrays = tool.dump(ROOT, "SMOKE")
    np.savez(second, **arrays)
    assert tool.main(["--compare", str(first), str(second)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == f"{len(arrays)} arrays compared, 0 differ"
    assert all(line.endswith("array_equal=True") for line in lines[:-1])
    for name in ("protein-measured/X", "chemostat-unmeasured/gamma_fn",
                 "harvest3/targets", "train/test_err", "cold/values",
                 "linear/C_f"):
        assert name in arrays

    # one changed bit and one missing name are both reported
    arrays["cold/values"] = np.nextafter(arrays["cold/values"], np.inf)
    del arrays["linear/setpoint"]
    np.savez(second, **arrays)
    assert tool.main(["--compare", str(first), str(second)]) == 1
    out = capsys.readouterr().out
    assert "cold/values array_equal=False" in out
    assert "linear/setpoint array_equal=False" in out
    assert out.splitlines()[-1].endswith("2 differ")
