"""Self-test of the benchmark's output checks.

Runs a few small epilink commands in process, confirms that each check
accepts the real output, then corrupts that output (a flipped edge, a
wrong chromosome, evaluations off by one, ...) and confirms that the
check rejects it.  Run from the root of a source checkout:

    python3 bench/selftest.py

Exits 0 when every check behaves, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import sys
from pathlib import Path

import reference as ref
import workloads as wl
from reference import Spec

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def cli(argv: list[str]) -> tuple[str, str]:
    from epilink.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    if rc != 0:
        raise RuntimeError(f"epilink {' '.join(argv)} exited {rc}")
    return out.getvalue(), err.getvalue()


def flip_bit(s: str) -> str:
    return ("1" if s[0] == "0" else "0") + s[1:]


def edit_json(text: str, edit) -> str:
    payload = json.loads(text)
    edit(payload)
    return json.dumps(payload)


def edit_first_row(text: str, **cells: str) -> str:
    """Set cells of the first data row of CSV output."""
    lines = text.splitlines()
    start = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    columns = lines[start].split(",")
    row = lines[start + 1].split(",")
    for column, value in cells.items():
        row[columns.index(column)] = value
    lines[start + 1] = ",".join(row)
    return "\n".join(lines) + "\n"


def cases():
    """(name, check, real stdout, real stderr, {corruption: corrupted stdout})."""
    here = Path(".")
    trap8 = wl.Problem(Spec("ctrap", 8), here)
    onemax8 = wl.Problem(Spec("onemax", 8), here)

    out, err = cli(["eg", *trap8.args])
    yield "eg", wl.check_eg(trap8), out, err, {
        "flipped edge kind": out.replace("style=solid", "style=dashed", 1),
        "edge moved across blocks": re.sub(r"0 -> 1 ", "4 -> 0 ", out, count=1),
        "dropped edge": re.sub(r"^.*0 -> 1 .*\n", "", out, count=1, flags=re.M),
    }

    out, err = cli(["decompose", *trap8.args, "--seed", "5"])
    yield "decompose", wl.check_decompose(trap8), out, err, {
        "wrong chromosome": edit_json(out, lambda p: p.update(chromosome=flip_bit(p["chromosome"]))),
        "evaluations off by one": edit_json(out, lambda p: p.update(evaluations=p["evaluations"] + 1)),
        "merged blocks": edit_json(out, lambda p: p.update(
            partition=[p["partition"][0] + p["partition"][1]] + p["partition"][2:])),
    }

    out, err = cli(["ipe", *trap8.args, "--n", "64", "--seed", "3", "--trace"])

    def bump_step(p):
        p["trace"]["steps"][-1]["cumulative_evaluations"] += 1

    yield "ipe --trace", wl.check_ipe(trap8, 64, 3, traced=True), out, err, {
        "wrong chromosome": edit_json(out, lambda p: p.update(outcome=flip_bit(p["outcome"]))),
        "evaluations off by one": edit_json(out, lambda p: p.update(evaluations=p["evaluations"] + 1)),
        "trace step evaluations off by one": edit_json(out, bump_step),
        "ebacc below 1 at the optimum": edit_json(out, lambda p: p.update(ebacc=0.5)),
    }

    out, err = cli(["verify", *trap8.args, "--weak-order", "2"])
    yield "verify", wl.check_verify, out, err, {
        "failed claim": out.replace("[          pass]", "[          fail]", 1),
        "no claims": "",
    }

    out, err = cli(["pac-sweep", *onemax8.args, "--runs", "20", "--seed", "1"])
    threshold = ref.pac_threshold(1, 8, 0.1)
    yield "pac-sweep", wl.check_pac_sweep(onemax8, None, 20, 0.1), out, err, {
        "rates not summing to 1": edit_first_row(out, wrong_rate="0.05"),
        "threshold n off by one": edit_first_row(out, n=str(threshold + 1)),
        "success below 1 - delta": edit_first_row(out, success_rate="0.85", wrong_rate="0.15"),
    }

    runs = 100
    out, err = cli(["weak-observability", "--runs", str(runs), "--seed", "2",
                    "--population", "50", "--generations", "2"])
    yield "weak-observability", wl.check_weak_observability(runs, 50, 2), out, err, {
        "probability off the closed form": edit_first_row(
            out, probability="0.2", stderr=f"{round((0.2 * 0.8 / runs) ** 0.5, 6)}"),
        "missing row": out.rsplit("\n", 2)[0] + "\n",
    }


def reference_cases():
    """The references against facts known without them."""
    trap8 = Spec("ctrap", 8)
    blocks = [range(0, 4), range(4, 8)]
    clique = {(u, v, "strict") for b in blocks for u in b for v in b if u != v}
    yield "ctrap-8 graph is two strict 4-cliques", ref.order1_edges(trap8) == clique
    yield "ctrap-8 SCCs are its blocks", set(ref.sccs(8, clique)) == {frozenset(b) for b in blocks}
    yield "onemax has difficulty 1", ref.difficulty(8, set()) == 1
    run = ref.reference_ipe(Spec("onemax", 8), 4, 0)
    yield "reference IPE solves onemax-8 at 4 * 2 * 8 evaluations", (
        run["outcome"] == "1" * 8 and run["evaluations"] == 64
    )
    yield "closed-form observability", abs(ref.observability(3, 10) - (1 - (7 / 8) ** 10)) < 1e-15


def main() -> int:
    bad = 0
    for name, ok in reference_cases():
        print(f"{'ok' if ok else 'WRONG':5} reference: {name}")
        bad += not ok
    for name, check, out, err, corrupted in cases():
        found = check(out, err)
        print(f"{'ok' if not found else 'WRONG':5} {name} accepts the real output {found or ''}")
        bad += bool(found)
        for what, text in corrupted.items():
            if text == out:
                print(f"WRONG {name}: corruption '{what}' changed nothing")
                bad += 1
                continue
            try:
                rejected = bool(check(text, err))
            except (ValueError, KeyError, IndexError):
                rejected = True
            print(f"{'ok' if rejected else 'WRONG':5} {name} rejects: {what}")
            bad += not rejected
    print("self-test passed" if not bad else f"self-test: {bad} checks misbehaved")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
