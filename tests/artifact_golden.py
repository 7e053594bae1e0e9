"""Golden artifacts: the data files and ``summary.json`` that each rerun of
``tests/test_cli.py`` writes, recorded under ``tests/golden/<argv>/``.

Re-record every golden from the repo root with

    PYTHONPATH=src python3 tests/artifact_golden.py

A change that moves data re-records in the same commit.  ``check`` compares
an output directory with its golden: text, integers and booleans exactly,
and each float within 1e-8 of the largest magnitude in its column (a CSV
column, or every value under one JSON key path, list positions merged).
``trace.csv`` is kept as its header, row count, column sums and column
magnitudes; a sum may move by 1e-8 of its column's magnitude per row.
Every JSON file is read strictly: ``Infinity`` or ``NaN`` fails the read.
"""

import json
import math
import re
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

GOLDEN = Path(__file__).resolve().parent / "golden"
REL_TOL = 1e-8
_INT = re.compile(r"^[+-]?\d+$")


def slug(argv: list[str]) -> str:
    """Directory name of a rerun's golden: its arguments, dashes stripped."""
    return "-".join(a.lstrip("-") for a in argv)


def _refuse(name: str):
    raise ValueError(f"non-finite JSON constant {name}")


def load_json(path: Path):
    """A JSON file's value; ``Infinity``, ``-Infinity`` or ``NaN`` raise."""
    return json.loads(path.read_text(), parse_constant=_refuse)


def _trace_digest(path: Path) -> dict:
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return {"header": header, "rows": len(data),
            "sum": dict(zip(header, data.sum(axis=0).tolist())),
            "max_abs": dict(zip(header, np.abs(data).max(axis=0).tolist()))}


def _golden_name(name: str) -> str:
    return name + ".json" if name == "trace.csv" else name


def record(out: Path, names: list[str], dest: Path) -> None:
    """Keep ``names`` from output directory ``out`` as the golden ``dest``."""
    shutil.rmtree(dest, ignore_errors=True)
    dest.mkdir(parents=True)
    for name in names:
        if name == "trace.csv":
            text = json.dumps(_trace_digest(out / name), indent=2) + "\n"
            (dest / _golden_name(name)).write_text(text)
        else:
            shutil.copyfile(out / name, dest / name)


def _csv_columns(path: Path) -> tuple[list[str], list[list[str]]]:
    header, *rows = path.read_text().splitlines()
    return header.split(","), [list(col) for col in zip(*(r.split(",") for r in rows))]


def _float(text: str) -> float | None:
    try:
        return None if _INT.match(text) else float(text)
    except ValueError:
        return None


def _close(got: float, want: float, tol: float) -> bool:
    if math.isnan(want):
        return math.isnan(got)
    return got == want or abs(got - want) <= tol


def _magnitude(values) -> float:
    finite = [abs(v) for v in values if v is not None and math.isfinite(v)]
    return max(finite, default=0.0)


def _check_csv(got: Path, want: Path) -> list[str]:
    g_head, g_cols = _csv_columns(got)
    w_head, w_cols = _csv_columns(want)
    if g_head != w_head or [len(c) for c in g_cols] != [len(c) for c in w_cols]:
        return [f"{want.name}: header {g_head} and rows {[len(c) for c in g_cols]}, "
                f"expected {w_head} and {[len(c) for c in w_cols]}"]
    bad = []
    for name, g_col, w_col in zip(w_head, g_cols, w_cols):
        tol = REL_TOL * _magnitude(map(_float, w_col))
        for row, (g, w) in enumerate(zip(g_col, w_col), start=1):
            gf, wf = _float(g), _float(w)
            if not (g == w or (gf is not None and wf is not None and _close(gf, wf, tol))):
                bad.append(f"{want.name} row {row} {name}: {g}, expected {w}")
    return bad


def _leaves(value, path: str = ""):
    """(key path, leaf) pairs of a JSON value, list positions written ``[]``."""
    if isinstance(value, dict):
        for k, v in value.items():
            yield from _leaves(v, f"{path}.{k}")
    elif isinstance(value, list):
        for v in value:
            yield from _leaves(v, path + "[]")
    else:
        yield path, value


def _shape(value):
    if isinstance(value, dict):
        return {k: _shape(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_shape(v) for v in value]
    return None


def _check_json(got, want, name: str) -> list[str]:
    if _shape(got) != _shape(want):
        return [f"{name}: keys or list lengths differ from the golden"]
    pairs = list(zip(_leaves(got), _leaves(want)))
    floats: dict[str, list[float]] = {}
    for _, (path, w) in pairs:
        if type(w) is float:
            floats.setdefault(path, []).append(w)
    tol = {path: REL_TOL * _magnitude(vals) for path, vals in floats.items()}
    bad = []
    for (_, g), (path, w) in pairs:
        ok = (type(g) is type(w) and (_close(g, w, tol[path]) if type(w) is float else g == w))
        if not ok:
            bad.append(f"{name} {path}: {g!r}, expected {w!r}")
    return bad


def _check_trace(got: Path, want: dict) -> list[str]:
    digest = _trace_digest(got)
    if (digest["header"], digest["rows"]) != (want["header"], want["rows"]):
        return [f"trace.csv: header {digest['header']} and {digest['rows']} rows, "
                f"expected {want['header']} and {want['rows']}"]
    bad = []
    for col in want["header"]:
        scale = REL_TOL * want["max_abs"][col]
        for key, tol in (("sum", scale * want["rows"]), ("max_abs", scale)):
            if not _close(digest[key][col], want[key][col], tol):
                bad.append(f"trace.csv {key} {col}: {digest[key][col]!r}, "
                           f"expected {want[key][col]!r}")
    return bad


def check(out: Path, names: list[str], golden: Path) -> list[str]:
    """Every difference between the files ``names`` of output directory
    ``out`` and the golden directory ``golden``, as messages."""
    kept = sorted(p.name for p in golden.iterdir())
    if kept != sorted(map(_golden_name, names)):
        return [f"golden {golden.name} holds {kept}, the run wrote {sorted(names)}"]
    bad = []
    for name in names:
        if name == "trace.csv":
            bad += _check_trace(out / name, load_json(golden / _golden_name(name)))
        elif name.endswith(".csv"):
            bad += _check_csv(out / name, golden / name)
        else:
            bad += _check_json(load_json(out / name), load_json(golden / name), name)
    return bad


def main() -> None:
    from test_cli import _RERUNS, _TINY_BENCH   # run as a script, tests/ is on the path

    from acansim.cli import dispatch

    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "cfg.json"
        cfg.write_text(json.dumps({"bench": _TINY_BENCH}))
        for argv, data in _RERUNS:
            out = Path(tmp) / slug(argv)
            if dispatch(argv + ["--seed", "0", "--config", str(cfg), "--out", str(out)]) != 0:
                sys.exit(f"acansim {' '.join(argv)} failed")
            record(out, data + ["summary.json"], GOLDEN / slug(argv))
            print(f"recorded {GOLDEN / slug(argv)}")


if __name__ == "__main__":
    main()
