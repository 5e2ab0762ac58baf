"""sha256 pins of the generated instance stream and of four CLI reports.

The lemma reports print PASS lines only, so they cannot show a drifted
random stream; these pins hash every generated instance and its first
continuity witness. The pinned reports are also produced in a fresh
interpreter and after other runs in this one, so memoized generation
lattices cannot carry state from one run into the next.
"""
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

from mucofix import (BINARY, WITH_EMPTY, InstanceGenSpec, pair_continuity_witness,
                     pair_to_json, split_seed)
from mucofix.cli import main
from mucofix.verifier import BLOCK, FAMILIES, FUNCTION_CLASSES, GenerationExhausted, _instances

PINS = json.loads((Path(__file__).parent / "data" / "stream_pins.json").read_text())
SRC = Path(__file__).resolve().parents[1] / "src"
STREAM_COUNT = 60


def _combinations():
    # k counts three seed slots per family and function class, as when the
    # pins were recorded; the third slot is unused, so every combination
    # keeps its pinned seed
    k = 0
    for family in FAMILIES:
        for function_class in FUNCTION_CLASSES:
            for mode in (BINARY, WITH_EMPTY):
                spec = InstanceGenSpec(seed=split_seed(2026, k), family=family,
                                       function_class=function_class, count=STREAM_COUNT)
                yield f"{family}/{function_class}/{mode.kind}", spec, mode
                k += 1
            k += 1


def _stream_digest(spec, mode) -> str:
    """Hash each instance check_lemma would generate for spec, drawn in its
    blocks as check_lemma draws them, with its continuity witness."""
    h = hashlib.sha256()
    for start in range(0, spec.count, BLOCK):
        for mp in _instances(spec, range(start, min(start + BLOCK, spec.count)), mode)[0]:
            if isinstance(mp, GenerationExhausted):
                h.update(f"exhausted: {mp}\n".encode())
                continue
            h.update(f"{pair_to_json(mp)}\n{pair_continuity_witness(mp, mode)!r}\n".encode())
    return h.hexdigest()


def test_instance_stream_matches_the_pins():
    got = {key: _stream_digest(spec, mode) for key, spec, mode in _combinations()}
    assert got == PINS["stream"]


def _report_digests() -> dict:
    out = {}
    for line in PINS["reports"]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main(line.split()) == 0
        out[line] = hashlib.sha256(buf.getvalue().encode()).hexdigest()
    return out


def test_reports_match_the_pins_in_a_fresh_interpreter():
    script = ("import json, sys; sys.path.insert(0, 'tests'); "
              "import test_stream_pins as t; print(json.dumps(t._report_digests()))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          cwd=Path(__file__).resolve().parents[1], env=env)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == PINS["reports"]


def test_reports_match_the_pins_after_other_runs(capsys):
    # a run with other seeds and sizes first fills the generation caches
    assert main(["verify", "--seed", "5", "--count", "12", "--size-lo", "3"]) == 0
    assert main(["mine", "Q3", "--seed", "8", "--budget", "300"]) == 0
    capsys.readouterr()
    assert _report_digests() == PINS["reports"]
