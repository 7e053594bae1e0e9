"""The README's examples run as written: every fenced ``python`` block, in
order, in one namespace, and the ``json`` config through the CLI, so a name
or key the package drops cannot survive in the docs."""

import json
import re
from dataclasses import fields
from pathlib import Path

from acansim import (
    DlccConfig,
    Environment,
    PowerClockConfig,
    SimConfig,
    SweepSpec,
    SynapseTreeConfig,
)
from acansim.cli import dispatch

README = Path(__file__).resolve().parent.parent / "README.md"


def _blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```$", README.read_text(), re.M | re.S)


def test_readme_python_blocks_run():
    blocks = _blocks("python")
    assert len(blocks) >= 3
    namespace = {"__name__": "readme"}
    for k, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {k}", "exec"), namespace)


def test_readme_json_config_runs_and_shows_every_key(tmp_path):
    (block,) = _blocks("json")
    path = tmp_path / "config.json"
    path.write_text(block)
    argv = ["run", "--config", str(path), "--codes", "1100,0011", "--out", str(tmp_path / "out")]
    assert dispatch(argv) == 0
    sections = {"pc": PowerClockConfig, "tree": SynapseTreeConfig, "dlcc": DlccConfig,
                "env": Environment, "sim": SimConfig, "bench": SweepSpec}
    declared = {name: {f.metadata["key"] for f in fields(cls) if f.metadata.get("key")}
                for name, cls in sections.items()}
    declared["bench"] |= {"f_grid", "d_grid", "w_grid", "c_e_grid", "alpha_grid", "n_synapses"}
    doc = json.loads(block)
    assert {name: set(keys) for name, keys in doc.items()} == declared
