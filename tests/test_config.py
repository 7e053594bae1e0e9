"""Declared field ranges of the config dataclasses: every numeric field
states its interval once, and building a config checks all of them."""

import json
import math
import re
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acansim import (
    BaselineConfig,
    DlccConfig,
    Environment,
    PowerClockConfig,
    SimConfig,
    SweepSpec,
    SynapseTreeConfig,
)
from acansim.cli import dispatch

# config class -> section name used in its error messages
_SECTIONS = {
    Environment: "env",
    PowerClockConfig: "pc",
    SynapseTreeConfig: "tree",
    DlccConfig: "dlcc",
    SimConfig: "sim",
    BaselineConfig: "baseline",
    SweepSpec: "bench",
}
# numeric fields whose rules are structural and stay hand-written
_UNRANGED = {"c_s", "c_d"}


def _ranged():
    """(class, field name, is_int, interval text, lo, hi) per ranged field."""
    out = []
    for cls in _SECTIONS:
        for f in fields(cls):
            interval = f.metadata.get("interval")
            if interval is not None:
                lo, hi = (float(end) for end in interval[1:-1].split(","))
                out.append((cls, f.name, f.type == "int", interval, lo, hi))
    return out


_RANGED = _ranged()


def _outside(is_int, interval, lo, hi):
    """NaN, both infinities and one value just past each finite bound."""
    vals = [math.nan, math.inf, -math.inf]
    if math.isfinite(lo):
        below = lo - 1 if is_int else math.nextafter(lo, -math.inf)
        vals.append(lo if interval[0] == "(" else below)
    if math.isfinite(hi):
        above = hi + 1 if is_int else math.nextafter(hi, math.inf)
        vals.append(hi if interval[-1] == ")" else above)
    return vals


def test_every_numeric_field_declares_a_range():
    missing = [f"{cls.__name__}.{f.name}" for cls in _SECTIONS for f in fields(cls)
               if re.search(r"\b(float|int)\b", f.type)
               and "interval" not in f.metadata and f.name not in _UNRANGED]
    assert missing == []


@pytest.mark.parametrize("cls, name, is_int, interval, lo, hi", _RANGED,
                         ids=[f"{_SECTIONS[r[0]]}.{r[1]}" for r in _RANGED])
def test_values_outside_the_range_are_rejected_by_name(cls, name, is_int, interval, lo, hi):
    for value in _outside(is_int, interval, lo, hi):
        if (cls, name, value) == (PowerClockConfig, "q_lc", math.inf):
            assert PowerClockConfig(q_lc=math.inf).q_lc == math.inf   # lossless loop
            continue
        with pytest.raises(ValueError, match=rf"^{_SECTIONS[cls]}\.{name}: must lie in "):
            cls(**{name: value})


def test_hand_written_tree_rules_reject_non_finite_capacitors():
    for bad in (math.nan, math.inf, 0.0, -1e-12):
        with pytest.raises(ValueError, match=r"^tree\.c_s\[1\]: "):
            SynapseTreeConfig(c_s=(1e-12, bad))
        # the weights are checked at once; the first bad one is named
        with pytest.raises(ValueError, match=r"^tree\.c_s\[300\]: "):
            SynapseTreeConfig(c_s=(1e-12,) * 300 + (bad,) + (1e-12, bad))
        with pytest.raises(ValueError, match=r"^tree\.c_d: "):
            SynapseTreeConfig(c_d=bad)


_FLOAT_RANGED = [r for r in _RANGED if not r[2]]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_finite_values_inside_the_range_are_accepted(data):
    cls, name, _, interval, lo, hi = data.draw(st.sampled_from(_FLOAT_RANGED))
    value = data.draw(st.floats(
        min_value=lo if math.isfinite(lo) else None,
        max_value=hi if math.isfinite(hi) else None,
        exclude_min=interval[0] == "(" and math.isfinite(lo),
        exclude_max=interval[-1] == ")" and math.isfinite(hi),
        allow_nan=False, allow_infinity=False))
    assert getattr(cls(**{name: value}), name) == value


# (JSON config text, field the error must name); four spell one non-finite
# value each way JSON and the SI parser allow, the last is a bench field
_BAD_DOCS = [
    ('{"dlcc": {"V_TH": NaN}}', "dlcc.v_th"),
    ('{"pc": {"C_E": "1e999pF"}}', "pc.c_e"),
    ('{"tree": {"R_TG": 1e999}}', "tree.r_tg_nominal"),
    ('{"tree": {"C_par": 1e999}}', "tree.c_par"),
    ('{"tree": {"C_s": [1e999, "1pF", "1pF", "1pF"]}}', "tree.c_s[0]"),
    ('{"dlcc": {"E_decision": 1e999}}', "dlcc.e_decision"),
    ('{"pc": {"f_nominal": "1e999Hz"}}', "pc.f_nominal"),
    ('{"pc": {"V_dc": NaN}}', "pc.v_dc"),
    ('{"pc": {"V_dc": Infinity}}', "pc.v_dc"),
    ('{"pc": {"V_dc": -Infinity}}', "pc.v_dc"),
    ('{"pc": {"V_dc": "1e999V"}}', "pc.v_dc"),
    ('{"bench": {"cycles": 0}}', "bench.cycles"),
]


@pytest.mark.parametrize("text, name", _BAD_DOCS)
def test_cli_run_rejects_non_finite_config_values(tmp_path, capsys, text, name):
    json.loads(text)   # valid JSON for Python's parser
    path = tmp_path / "cfg.json"
    path.write_text(text)
    out = tmp_path / "out"
    rc = dispatch(["run", "--config", str(path), "--codes", "1100,0011", "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {name}: must lie in ")
    assert "Traceback" not in err
    assert not (out / "summary.json").exists()
