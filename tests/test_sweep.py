"""The same-results sweep (tests/sweep.py) repeats itself bit for bit and
calls every public function of ``quatinv.factor`` and ``quatinv.geninv``.

The full sweep compares two trees and is its own CI job; this runs it
twice on this tree at reduced size.
"""

import inspect
import json
import sys
from pathlib import Path

import quatinv.factor as factor
import quatinv.geninv as geninv
import sweep


def test_sweep_repeats_itself_and_calls_every_public_function(
        tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(sys, "path", list(sys.path))  # --src prepends
    src = Path(factor.__file__).resolve().parents[1]
    runs = [tmp_path / "a.json", tmp_path / "b.json"]
    for out in runs:
        assert sweep.main(["--src", str(src), "--out", str(out),
                           "--max-order", "1"]) == 0
    assert sweep.main(["--compare", *map(str, runs)]) == 0
    assert capsys.readouterr().out.endswith("equal bit for bit\n")
    called = {key.split("/")[1].split("-")[0]
              for key in json.loads(runs[0].read_text())}
    public = {name for mod in (factor, geninv) for name in mod.__all__
              if inspect.isfunction(getattr(mod, name))}
    assert called == public


def test_compare_lists_a_differing_output(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path, value in ((a, 1.0), (b, 1.0 + 2.0 ** -40)):
        arr = sweep.np.array([value, 2.0])
        path.write_text(json.dumps({"case/ctor/direct": {"x": {
            "digest": sweep._digest(arr), "max": 2.0}}}))
        with open(f"{path}.npz", "wb") as fh:
            sweep.np.savez(fh, **{"case/ctor/direct|x": arr})
    assert sweep.compare(a, b) == [
        "case/ctor/direct x: largest relative difference 4.547e-13"]
