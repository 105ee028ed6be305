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
                 "linear/setpoint", "preset-chemostat/phi"):
        assert name in arrays

    # one changed bit, a scaled array and one missing name are all reported,
    # the first two with their largest absolute and relative differences
    values = arrays["cold/values"]
    arrays["cold/values"] = np.nextafter(values, np.inf)
    arrays["harvest0/targets"] = 1.5 * arrays["harvest0/targets"]
    del arrays["linear/setpoint"]
    np.savez(second, **arrays)
    assert tool.main(["--compare", str(first), str(second)]) == 1
    out = capsys.readouterr().out
    ulp = np.abs(arrays["cold/values"] - values).max()
    assert (f"cold/values array_equal=False max_abs={ulp:.3e} "
            "max_rel=") in out
    targets = np.abs(arrays["harvest0/targets"]).max() / 3.0
    assert (f"harvest0/targets array_equal=False max_abs={targets:.3e} "
            f"max_rel={1 / 3:.3e}") in out
    assert "linear/setpoint array_equal=False\n" in out
    assert out.splitlines()[-1].endswith("3 differ")
