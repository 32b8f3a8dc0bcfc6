"""Command-line interface: subcommands, formats, and exit codes."""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from contextlib import nullcontext
from unittest.mock import patch

import pytest

import epilink
from epilink import gasim
from epilink.cli import (
    EXIT_ASSUMPTION,
    EXIT_CAP,
    EXIT_OK,
    EXIT_PARSE,
    build_parser,
    main,
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestListProblems:
    def test_lists_kinds(self, capsys):
        code, out, _ = run(capsys, "list-problems")
        assert code == EXIT_OK
        assert out.splitlines() == [
            "onemax", "leadingones", "ctrap", "cyctrap", "cniah",
            "leadingtraps", "onemax-prime-blocks", "lookup-table",
        ]

    def test_lists_the_kinds_make_problem_builds(self, capsys):
        from epilink import problems

        assert run(capsys, "list-problems")[1].splitlines() == list(problems.KINDS)


class TestEg:
    def test_ctrap_dot(self, capsys):
        code, out, err = run(capsys, "eg", "--kind", "ctrap", "--m", "2")
        assert code == EXIT_OK
        assert "digraph" in out
        assert "0 -> 1 [style=solid];" in out
        assert "0 -> 5" not in out
        summary = json.loads(err)
        assert summary["k_scc"] == 4
        assert summary["decomposition_difficulty"] == 4

    def test_onemax_edgeless(self, capsys):
        code, out, _ = run(capsys, "eg", "--kind", "onemax", "--l", "6")
        assert code == EXIT_OK
        assert "->" not in out

    def test_leadingones_dashed(self, capsys):
        code, out, _ = run(capsys, "eg", "--kind", "leadingones", "--l", "5")
        assert code == EXIT_OK
        assert out.count("style=dashed") == 10
        assert "style=solid" not in out

    def test_json_format_with_order_bound(self, capsys):
        code, out, _ = run(
            capsys,
            "eg", "--kind", "onemax", "--l", "4",
            "--format", "json", "--epistasis-order-bound", "2",
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["edges"] == []
        assert payload["summary"]["max_epistasis_order"] == 0

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "eg.dot"
        code, out, _ = run(
            capsys, "eg", "--kind", "ctrap", "--m", "1", "--output", str(target)
        )
        assert code == EXIT_OK
        assert "digraph" in target.read_text()


class TestDecompose:
    def test_leadingtraps(self, capsys):
        code, out, _ = run(capsys, "decompose", "--kind", "leadingtraps", "--m", "2")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["partition"] == [[0, 1, 2, 3], [4, 5, 6, 7]]
        assert payload["chromosome"] == "1" * 8
        assert payload["evaluations"] == 33
        assert payload["optimal"] is True

    def test_onemax_singletons(self, capsys):
        code, out, _ = run(capsys, "decompose", "--kind", "onemax", "--l", "8")
        payload = json.loads(out)
        assert code == EXIT_OK
        assert payload["evaluations"] == 17
        assert payload["optimal"] is True

    def test_cyctrap_fixture(self, capsys):
        code, out, _ = run(
            capsys,
            "decompose", "--kind", "cyctrap", "--l", "12", "--fixture-partition",
        )
        payload = json.loads(out)
        assert code == EXIT_OK
        assert payload["partition_source"] == "fixture"
        assert payload["partition"] == [list(range(10)), [10, 11]]
        assert payload["optimal"] is True


class TestIpe:
    def test_ctrap_with_trace(self, capsys):
        code, out, _ = run(
            capsys,
            "ipe", "--kind", "ctrap", "--m", "2", "--n", "256", "--trace",
        )
        payload = json.loads(out)
        assert code == EXIT_OK
        assert payload["outcome"] == "1" * 8
        assert payload["ebacc"] == 1.0
        assert payload["topological_order_ok"] is True
        assert payload["trace"]["outcome"] == "success"

    def test_onemax_tiny_population(self, capsys):
        code, out, _ = run(capsys, "ipe", "--kind", "onemax", "--l", "10", "--n", "1")
        payload = json.loads(out)
        assert code == EXIT_OK
        assert payload["outcome"] == "1" * 10


class TestVerify:
    def test_ctrap_all_pass(self, capsys):
        code, out, _ = run(
            capsys,
            "verify", "--kind", "ctrap", "--m", "2",
            "--theorems", "decomposition,blanket,clique", "--weak-order", "3",
        )
        assert code == EXIT_OK
        assert "fail" not in out
        assert "[          pass]" in out

    def test_cyctrap_not_applicable(self, capsys):
        code, out, _ = run(
            capsys,
            "verify", "--kind", "cyctrap", "--l", "12",
            "--theorems", "decomposition", "--weak-order", "2",
        )
        assert code == EXIT_OK
        assert "not-applicable" in out
        assert "[2, 4] => 3" in out

    def test_cyctrap_blanket_audited_for_every_locus(self, capsys):
        # weak epistases reach every locus, so no blanket claim applies
        code, out, _ = run(
            capsys, "verify", "--kind", "cyctrap", "--m", "4", "--weak-order", "2"
        )
        assert code == EXIT_OK
        assert "fail" not in out
        blanket = [line for line in out.splitlines() if "blanket holds" in line]
        assert len(blanket) == 12
        assert all("[not-applicable]" in line for line in blanket)

    def test_oracles_answer_above_sixteen_loci(self, capsys):
        # the oracles are bounded by the fitness-table budget (22 loci) alone
        code, out, _ = run(
            capsys,
            "verify", "--kind", "onemax", "--l", "17",
            "--theorems", "decomposition", "--weak-order", "1",
        )
        assert code == EXIT_OK
        assert out.count("[          pass]") == 34

    def test_cniah_clique_not_applicable(self, capsys):
        code, out, _ = run(
            capsys,
            "verify", "--kind", "cniah", "--m", "2", "--theorems", "clique",
        )
        assert code == EXIT_OK
        assert "not-applicable" in out

    def test_decomposition_refused_before_any_scan(self, capsys):
        # above the oracles' table-scan limit, the refusal comes before the
        # graph or the audit
        from epilink import graph, oracles

        with patch.object(oracles, "_FULL_SCAN_MAX", 1 << 9), \
                patch.object(graph, "build_eg", side_effect=AssertionError("scanned")):
            code, out, err = run(
                capsys, "verify", "--kind", "onemax", "--l", "10", "--theorems", "decomposition"
            )
        assert (code, out) == (EXIT_CAP, "")
        assert err.startswith("error: exhaustive enumeration needs 1024 completions")

    def test_default_theorems(self, capsys):
        # no --theorems checks decomposition, every blanket and clique, in
        # that order; an empty list is refused
        argv = ["verify", "--kind", "ctrap", "--m", "1", "--weak-order", "1"]
        code, out, _ = run(capsys, *argv)
        assert code == EXIT_OK
        assert run(capsys, *argv, "--theorems", "decomposition,blanket,clique")[:2] == (code, out)
        reports = out.split("\n\n")
        assert len(reports) == 6
        assert "coverage(MSO(0))" in reports[0]
        assert all(f"blanket holds for S=[{v}]" in r for v, r in enumerate(reports[1:5]))
        assert "bidirectional clique" in reports[5]
        code, out, err = run(capsys, *argv, "--theorems", "")
        assert (code, out) == (EXIT_PARSE, "")
        assert "names no theorem" in err

    def test_unknown_theorem(self, capsys):
        code, _, err = run(
            capsys,
            "verify", "--kind", "onemax", "--l", "4", "--theorems", "pac",
        )
        assert code == EXIT_PARSE
        assert "unknown theorems" in err


class TestPacSweep:
    def test_onemax_csv(self, capsys):
        code, out, _ = run(
            capsys,
            "pac-sweep", "--kind", "onemax", "--l", "8",
            "--n-values", "8", "--runs", "20",
        )
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[3].startswith("n,runs,success_rate")
        n, runs, success, *_ = lines[4].split(",")
        assert (n, runs) == ("8", "20")
        assert float(success) == 1.0

    def test_auto_threshold_at_k1(self, capsys):
        # difficulty 1: the sufficient-n bound is small enough to sweep directly
        code, out, _ = run(
            capsys,
            "pac-sweep", "--kind", "onemax", "--l", "8", "--runs", "10",
        )
        assert code == EXIT_OK
        assert "sufficient_n_threshold=2^2" in out

    def test_infeasible_threshold_needs_n_values(self, capsys):
        code, _, err = run(
            capsys, "pac-sweep", "--kind", "ctrap", "--m", "2", "--runs", "10"
        )
        assert code == EXIT_PARSE
        assert "2^80" in err

    def test_bad_delta(self, capsys):
        code, _, _ = run(
            capsys,
            "pac-sweep", "--kind", "onemax", "--l", "4",
            "--delta", "1.5", "--n-values", "4",
        )
        assert code == EXIT_PARSE

    def test_golden_csv(self, capsys):
        # Pins every run's outcome and counted evaluations end to end; n = 128
        # and 512 scan through the screen, n <= 32 test every chromosome at once.
        code, out, _ = run(
            capsys,
            "pac-sweep", "--kind", "ctrap", "--m", "2", "--n-values", "2,8,32,128,512",
            "--runs", "30", "--seed", "1",
        )
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "f0094cf63155f2ac7d6ed55ce3569569b76a1452a729082120714532720be600"
        )


class TestWeakObservability:
    def test_small_run(self, capsys):
        code, out, _ = run(
            capsys,
            "weak-observability", "--runs", "10", "--population-sizes", "10,50",
            "--population", "20", "--generations", "2", "--blocks", "2,3",
        )
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        header = lines[1].split(",")
        assert header[:4] == ["block_order", "population_size", "generation", "probability"]
        orders = {line.split(",")[0] for line in lines[2:]}
        assert orders == {"2", "3"}

    def test_golden_csv(self, capsys):
        # Pins the GA's random stream end to end, even if the code and the
        # sequential reference in test_gasim.py drift together.
        code, out, _ = run(
            capsys,
            "weak-observability", "--runs", "12", "--seed", "7", "--population", "40",
            "--generations", "4", "--population-sizes", "10,40",
        )
        assert code == EXIT_OK
        assert len(out.splitlines()) == 37
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "412e9811a2c0c4db24e329015145ef6e0e8c550a9b542e9eafd28decbd9e6898"
        )

    @pytest.mark.parametrize("cpus", [None, 1, 4])
    def test_golden_csv_several_blocks(self, capsys, cpus):
        # 6 blocks of 5 runs, so the runs are shared among forked workers;
        # the digest was recorded before the GA used more than one process.
        # None keeps this machine's CPU count.
        with patch.object(gasim, "_cpus", return_value=cpus) if cpus else nullcontext():
            code, out, _ = run(
                capsys,
                "weak-observability", "--runs", "30", "--seed", "7", "--population", "500",
                "--generations", "3", "--population-sizes", "10,500",
            )
        assert code == EXIT_OK
        rows = out.splitlines()[2:]
        assert len(rows) == 30
        # --population is one of --population-sizes: the sweep row and the
        # GA's generation-0 row share (block_order, population_size, generation)
        keys = [tuple(row.split(",")[:3]) for row in rows]
        assert sorted(k for k in set(keys) if keys.count(k) > 1) == [
            (str(order), "500", "0") for order in range(2, 7)
        ]
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "266df9c2371ea0b6179a3b0865f9374f445ae3d4397cf92077bebecc1c8f0a5d"
        )


def fresh_env(**env_vars):
    """The environment of a new interpreter that imports this checkout.

    ``OPENBLAS_NUM_THREADS`` is dropped from it (an in-process
    ``epilink.cli`` import has set it here) unless given."""
    src = os.path.dirname(os.path.dirname(epilink.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("OPENBLAS_NUM_THREADS", None)
    env.update(env_vars)
    return env


def fresh_python(code, **env_vars):
    """Exit code of ``code`` in a new interpreter that imports this checkout."""
    return subprocess.run([sys.executable, "-c", code], env=fresh_env(**env_vars), timeout=60).returncode


def test_cli_import_does_not_load_multiprocessing():
    # Nothing imports it: the GA forks its workers with ``os.fork``, and an
    # import would add to every command's start-up and peak memory.
    assert fresh_python("import sys, epilink.cli; sys.exit('multiprocessing' in sys.modules)") == 0


class TestStartup:
    """Package import stays light; the CLI defaults OpenBLAS to one thread."""

    def test_package_import_loads_no_numpy_and_sets_nothing(self):
        code = (
            "import os, sys, epilink\n"
            "sys.exit('numpy' in sys.modules or 'OPENBLAS_NUM_THREADS' in os.environ)"
        )
        assert fresh_python(code) == 0

    def test_star_import_binds_all_and_unknown_names_raise(self):
        code = (
            "import sys, epilink\n"
            "from epilink import *\n"
            "from epilink import model, problems\n"
            "names = dict(globals())\n"
            "bound = all(names[n] is getattr(model, n, None) or names[n] is getattr(problems, n)\n"
            "            for n in epilink.__all__)\n"
            "try:\n"
            "    epilink.nope\n"
            "    raised = False\n"
            "except AttributeError:\n"
            "    raised = True\n"
            "sys.exit(not (bound and raised and set(epilink.__all__) <= set(dir(epilink))))"
        )
        assert fresh_python(code) == 0

    @pytest.mark.parametrize("preset, expected", [(None, "1"), ("3", "3")])
    def test_cli_import_sets_openblas_default(self, preset, expected):
        code = (
            "import os, sys, epilink.cli\n"
            f"sys.exit(os.environ['OPENBLAS_NUM_THREADS'] != {expected!r})"
        )
        env = {} if preset is None else {"OPENBLAS_NUM_THREADS": preset}
        assert fresh_python(code, **env) == 0

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs Linux /proc")
    def test_cli_import_starts_no_blas_threads(self):
        # the default is set before numpy loads, so OpenBLAS honours it in
        # a numpy that a command loads later
        code = "import os, sys, epilink.cli, numpy; sys.exit(len(os.listdir('/proc/self/task')) != 1)"
        assert fresh_python(code) == 0

    def test_cli_import_loads_every_traced_module(self):
        # bench/tracing.py patches these modules through sys.modules and
        # rebinds cli.pac_sweep, so the CLI registers them at import (each
        # loads on first use) and cli.pac_sweep must resolve.
        bench = os.path.join(os.path.dirname(os.path.dirname(__file__)), "bench")
        code = (
            "import sys, epilink.cli\n"
            f"sys.path.insert(0, {bench!r})\n"
            "import tracing\n"
            "from epilink import cli, decomposition\n"
            "missing = {m for m, *_ in tracing.TRACED} - set(sys.modules)\n"
            "sys.exit(bool(missing) or cli.pac_sweep is not decomposition.pac_sweep)"
        )
        assert fresh_python(code) == 0

    def test_traced_round_leaves_no_wrapper(self):
        # the tracer loads the lazy modules as it walks sys.modules; each
        # must load before the model functions it imports are wrapped, or
        # it keeps a wrapper that the round does not undo
        bench = os.path.join(os.path.dirname(os.path.dirname(__file__)), "bench")
        code = (
            "import sys, epilink.cli\n"
            f"sys.path.insert(0, {bench!r})\n"
            "import tracing\n"
            "with tracing.installed(tracing.Tracer()):\n"
            "    pass\n"
            "left = [(n, k) for n, m in list(sys.modules.items()) if n.startswith('epilink')\n"
            "        for k, v in vars(m).items() if getattr(v, '__module__', None) == 'tracing']\n"
            "sys.exit(bool(left))"
        )
        assert fresh_python(code) == 0

    @pytest.mark.parametrize("argv, executed, code, err", [
        (["list-problems", "--output", os.devnull], [], EXIT_OK, ""),
        (["eg", "--kind", "ctrap", "--m", "1", "--output", os.devnull],
         ["epistasis", "graph", "model", "problems"], EXIT_OK, None),
        (["verify", "--kind", "ctrap", "--m", "1", "--weak-order", "1", "--output", os.devnull],
         ["epistasis", "graph", "model", "oracles", "problems"], EXIT_OK, ""),
        (["weak-observability", "--runs", "2", "--population", "10", "--generations", "1",
          "--population-sizes", "10", "--output", os.devnull], ["gasim", "model", "problems"],
         EXIT_OK, ""),
        (["--help"], [], EXIT_OK, ""),
        (["eg", "--help"], [], EXIT_OK, ""),
        (["decompose", "--kind", "onemax", "--l", "4", "--seed", "-1"], [], EXIT_PARSE,
         "error: seed must be >= 0\n"),
        (["eg", "--spec", "ctrap-m1.json", "--kind", "onemax", "--l", "8"], [], EXIT_PARSE,
         "error: pass --spec or --kind/--l/--m/--block-sizes, not both\n"),
        (["eg", "--spec", "missing.json"], [], EXIT_PARSE,
         "error: [Errno 2] No such file or directory: 'missing.json'\n"),
        (["eg", "--kind", "onemax", "--l", "4", "--output", "."], [], EXIT_PARSE,
         "error: [Errno 21] Is a directory: '.'\n"),
        (["weak-observability", "--runs", "0"], [], EXIT_PARSE, "error: runs must be >= 1\n"),
        # each command checks its options before it builds the problem
        (["ipe", "--kind", "onemax", "--l", "4", "--n", "0"], [], EXIT_PARSE,
         "error: population size must be >= 1\n"),
        (["eg", "--kind", "onemax", "--l", "4", "--epistasis-order-bound", "-2"], [], EXIT_PARSE,
         "error: epistasis order bound must be >= 0\n"),
        (["verify", "--kind", "onemax", "--l", "4", "--weak-order", "-1"], [], EXIT_PARSE,
         "error: weak-epistasis audit order must be >= 0\n"),
        (["verify", "--kind", "onemax", "--l", "4", "--theorems", "bogus"], [], EXIT_PARSE,
         "error: unknown theorems: ['bogus']\n"),
        (["pac-sweep", "--kind", "onemax", "--l", "4", "--delta", "nan", "--n-values", "4"], [],
         EXIT_PARSE, "error: delta must lie in (0, 1)\n"),
        (["pac-sweep", "--kind", "onemax", "--l", "4", "--runs", "0", "--n-values", "4"], [],
         EXIT_PARSE, "error: runs must be >= 1\n"),
        (["pac-sweep", "--kind", "onemax", "--l", "4", "--n-values", "0"], [], EXIT_PARSE,
         "error: population size must be >= 1\n"),
        (["weak-observability", "--population-sizes", "-1"], [], EXIT_PARSE,
         "error: population size must be >= 0\n"),
        # so a bad option's message wins over a bad spec's
        (["ipe", "--kind", "bogus", "--n", "0"], [], EXIT_PARSE,
         "error: population size must be >= 1\n"),
    ], ids=["list-problems", "eg", "verify", "weak-observability", "help", "eg-help",
            "negative-seed", "spec-and-kind", "missing-spec", "unwritable-output", "no-runs",
            "ipe-n", "eg-order-bound", "verify-weak-order", "verify-theorems", "pac-delta",
            "pac-runs", "pac-n-values", "weak-population-sizes", "option-before-spec"])
    def test_command_executes_only_its_modules(self, tmp_path, argv, executed, code, err):
        # a lazy module's namespace gains __builtins__ when its code runs;
        # object.__getattribute__ reads the namespace without loading it.
        # numpy loads with model, so a command that builds no problem
        # loads none.
        (tmp_path / "ctrap-m1.json").write_text(json.dumps({"kind": "ctrap", "m": 1}))
        child = (
            "import sys\n"
            "from epilink.cli import main\n"
            "try:\n"
            f"    rc = main({argv!r})\n"
            "except SystemExit as exc:\n"
            "    rc = exc.code\n"
            "ran = [n for n in ('decomposition', 'epistasis', 'gasim', 'graph', 'model', 'oracles',\n"
            "                   'problems')\n"
            "       if '__builtins__' in object.__getattribute__(sys.modules['epilink.' + n], '__dict__')]\n"
            "loaded = sorted({'fractions', 'numpy'} & set(sys.modules))\n"
            f"if ran != {executed!r} or loaded != {['numpy'] if executed else []!r}:\n"
            "    sys.exit(f'ran {ran}, loaded {loaded}')\n"
            "sys.exit(rc)"
        )
        proc = subprocess.run([sys.executable, "-c", child], env=fresh_env(), cwd=tmp_path,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == code, proc.stderr
        if err is not None:
            assert proc.stderr == err

    def test_lazy_modules_are_bound_on_the_package(self):
        code = (
            "import sys, epilink.cli\n"
            "import epilink.graph\n"
            "from epilink.graph import build_eg\n"
            "from epilink import decomposition\n"
            "sys.exit(epilink.graph.build_eg is not build_eg\n"
            "         or decomposition is not sys.modules['epilink.decomposition'])"
        )
        assert fresh_python(code) == 0


class TestSpecFilesAndExitCodes:
    def test_spec_file(self, capsys, tmp_path):
        spec = tmp_path / "p.json"
        spec.write_text(json.dumps({"kind": "ctrap", "m": 1}))
        code, out, _ = run(capsys, "decompose", "--spec", str(spec))
        assert code == EXIT_OK
        assert json.loads(out)["chromosome"] == "1111"

    def test_parse_error_unknown_kind(self, capsys):
        code, _, err = run(capsys, "eg", "--kind", "spinglass", "--l", "8")
        assert code == EXIT_PARSE
        assert "error:" in err

    def test_parse_error_missing_spec(self, capsys):
        code, _, _ = run(capsys, "eg")
        assert code == EXIT_PARSE

    def test_parse_error_bad_json(self, capsys, tmp_path):
        spec = tmp_path / "bad.json"
        spec.write_text("{not json")
        code, _, _ = run(capsys, "decompose", "--spec", str(spec))
        assert code == EXIT_PARSE

    def test_cap_exceeded(self, capsys):
        code, _, err = run(
            capsys, "eg", "--kind", "onemax", "--l", "10", "--cap", "16"
        )
        assert code == EXIT_CAP
        assert "exceeds the cap" in err

    def test_cap_exceeded_after_warm_run(self, capsys, monkeypatch):
        # the same problem object serves both commands: its caches are warm
        # for the second, which must still refuse the capped enumeration
        from epilink import problems

        shared = problems.CTrap(2)
        monkeypatch.setattr(problems, "make_problem", lambda spec: shared)
        for argv, expected in ((["--cap", "16"], EXIT_CAP), ([], EXIT_OK), (["--cap", "16"], EXIT_CAP)):
            code, _, _ = run(capsys, "eg", "--kind", "ctrap", "--m", "2", *argv)
            assert code == expected

    def test_assumption_violation(self, capsys, tmp_path):
        spec = tmp_path / "tie.json"
        spec.write_text(
            json.dumps(
                {"kind": "lookup-table", "l": 2, "pairs": {"00": 1, "11": 1}}
            )
        )
        code, _, err = run(capsys, "decompose", "--spec", str(spec))
        assert code == EXIT_ASSUMPTION
        assert "not unique" in err


#: Spec fields of the wrong type, each with the field its refusal names.
WRONG_TYPES = [
    ({"kind": "onemax", "l": 2, "permutation": [1.0, 0.0]}, "permutation"),
    ({"kind": "onemax", "l": 2, "permutation": [True, False]}, "permutation"),
    ({"kind": "onemax", "l": 2, "name": 5}, "name"),
    ({"kind": "ctrap", "m": 1.5}, "m"),
    ({"kind": "onemax", "l": "4"}, "l"),
    ({"kind": "onemax", "l": 1e3}, "l"),
    ({"kind": "onemax", "size": True}, "size"),
    ({"kind": "onemax-prime-blocks", "block_sizes": "34"}, "block_sizes"),
    ({"kind": "onemax-prime-blocks", "block_sizes": [2.9, 3]}, "block_sizes"),
    ({"kind": "lookup-table", "table": [False, True]}, "table"),
    ({"kind": "lookup-table", "table": ["0", "1"]}, "table"),
    ({"kind": "lookup-table", "l": 1, "pairs": {"1": True}}, "pairs"),
    ({"kind": "lookup-table", "l": 1, "pairs": {"1": 1}, "default": "0.5"}, "default"),
]


class TestUserErrorsExitTwo:
    """Bad command-line or spec input exits 2; any other ValueError is a bug."""

    @pytest.mark.parametrize("argv", [
        ["pac-sweep", "--kind", "onemax", "--l", "4", "--n-values", "4", "--runs", "0"],
        ["pac-sweep", "--kind", "onemax", "--l", "4", "--n-values", "4,x", "--runs", "2"],
        ["pac-sweep", "--kind", "onemax", "--l", "4", "--n-values", "0", "--runs", "2"],
        ["pac-sweep", "--kind", "onemax", "--l", "4", "--n-values", "4", "--seed", "-1"],
        ["weak-observability", "--runs", "0"],
        ["weak-observability", "--runs", "2", "--population-sizes", "10,-1"],
        ["weak-observability", "--runs", "2", "--blocks", "2,x"],
        ["weak-observability", "--runs", "3", "--blocks", "9", "--population", "10",
         "--generations", "1"],
        ["weak-observability", "--runs", "2", "--population", "0", "--generations", "1",
         "--population-sizes", "10"],
        ["weak-observability", "--runs", "2", "--population", "10", "--generations", "-1",
         "--population-sizes", "10"],
        ["ipe", "--kind", "onemax", "--l", "4", "--n", "0"],
        ["decompose", "--kind", "onemax", "--l", "4", "--seed", "-1"],
        ["decompose", "--kind", "onemax", "--l", "4", "--fixture-partition"],
        ["eg", "--kind", "onemax-prime-blocks", "--block-sizes", "3,x"],
        ["weak-observability", "--runs", "3", "--blocks", "2,9", "--population", "10",
         "--generations", "1", "--population-sizes", "10"],
        ["pac-sweep", "--kind", "onemax", "--l", "4", "--delta", "nan", "--n-values", "4"],
        ["pac-sweep", "--kind", "ctrap", "--m", "1", "--delta", "nan", "--n-values", "4"],
        ["verify", "--kind", "onemax", "--l", "4", "--weak-order", "-1"],
        ["eg", "--kind", "onemax", "--l", "4", "--epistasis-order-bound", "-2"],
        ["eg", "--kind", "ctrap", "--m", "2", "--l", "12"],
        ["eg", "--kind", "ctrap", "--m", "2", "--block-sizes", "4,4"],
        ["verify", "--kind", "onemax", "--l", "4", "--theorems", ","],
        ["eg", "--spec", "ctrap-m1.json", "--kind", "onemax", "--l", "8"],
        ["eg", "--spec", "ctrap-m1.json", "--m", "2"],
        ["eg", "--spec", "ctrap-m1.json", "--block-sizes", "3,4"],
        ["eg", "--kind", "ctrap", "--m", "2", "--cap", "-5"],
        ["eg", "--kind", "ctrap", "--m", "2", "--cap", "0"],
        ["decompose", "--spec", "ctrap-m1.json", "--cap", "0"],
        ["weak-observability", "--blocks", ""],
        ["pac-sweep", "--kind", "onemax", "--l", "4", "--n-values", "", "--runs", "2"],
    ])
    def test_bad_arguments(self, capsys, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)  # a valid spec for the cases that pass one
        (tmp_path / "ctrap-m1.json").write_text(json.dumps({"kind": "ctrap", "m": 1}))
        code, out, err = run(capsys, *argv)
        assert (code, out) == (EXIT_PARSE, "")
        assert err.startswith("error: ")

    @pytest.mark.parametrize("argv", [
        ["eg", "--kind", "onemax", "--l", "4", "--seed", "1"],
        ["verify", "--kind", "onemax", "--l", "4", "--seed", "1"],
        *(["weak-observability", "--runs", "1", flag, value] for flag, value in (
            ("--spec", "p.json"), ("--kind", "ctrap"), ("--l", "4"), ("--m", "1"),
            ("--block-sizes", "3,4"), ("--cap", "4"),
        )),
    ])
    def test_undeclared_option_refused(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out = capsys.readouterr()
        assert (exc.value.code, out.out) == (EXIT_PARSE, "")
        assert "unrecognized arguments" in out.err

    def test_weak_order_zero_is_valid(self, capsys):
        assert run(capsys, "verify", "--kind", "onemax", "--l", "4", "--weak-order", "0")[0] == EXIT_OK

    @pytest.mark.parametrize("flag", ["--spec", "--output"])
    def test_file_argument_is_a_directory(self, capsys, tmp_path, flag):
        argv = ["--kind", "onemax", "--l", "4"] if flag == "--output" else []
        code, out, err = run(capsys, "eg", *argv, flag, str(tmp_path))
        assert (code, out) == (EXIT_PARSE, "")
        assert err.startswith("error: ") and "Is a directory" in err

    def test_output_refused_before_computing(self, capsys, tmp_path):
        computed = AssertionError("the GA ran before --output was checked")
        with patch.object(gasim, "initial_observability", side_effect=computed), \
                patch.object(gasim, "generational_observability", side_effect=computed):
            code, out, err = run(capsys, "weak-observability", "--runs", "3",
                                 "--output", str(tmp_path))
        assert (code, out) == (EXIT_PARSE, "")
        assert err.startswith("error: ") and "Is a directory" in err

    def test_spec_not_utf8(self, capsys, tmp_path):
        spec = tmp_path / "latin1.json"
        spec.write_bytes('{"kind": "onemax", "l": 4, "note": "\xe9"}'.encode("latin-1"))
        code, out, err = run(capsys, "eg", "--spec", str(spec))
        assert (code, out) == (EXIT_PARSE, "")
        assert err.startswith("error: ") and "not UTF-8" in err

    def test_runs_zero_message(self, capsys):
        _, _, err = run(capsys, "weak-observability", "--runs", "0")
        assert err == "error: runs must be >= 1\n"

    def test_unknown_block_order_message(self, capsys):
        # one matching order does not hide an unknown one
        _, _, err = run(capsys, "weak-observability", "--runs", "3", "--blocks", "2,9,7")
        assert err == "error: --blocks: no block has order 9, 7; the orders are 2, 3, 4, 5, 6\n"

    @pytest.mark.parametrize("flag, value, message", [
        ("--population", "0", "population must be >= 1"),
        ("--generations", "-1", "generations must be >= 0"),
    ])
    def test_ga_size_messages(self, capsys, flag, value, message):
        _, _, err = run(capsys, "weak-observability", "--runs", "2", "--population-sizes", "10",
                        flag, value)
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("spec", [
        {"kind": "onemax", "l": "abc"},
        {"kind": "onemax-prime-blocks", "block_sizes": [3, "x"]},
        {"kind": "lookup-table", "table": ["a", "b"]},
        {"kind": "lookup-table", "l": 2, "pairs": {"0x": 1}},
        {"kind": "ctrap", "m": None},
        {"kind": "onemax", "l": 4, "permutation": 5},
        5,
        {"kind": "onemax", "l": 4, "permuation": [3, 2, 1, 0]},
        {"kind": "lookup-table", "table": [0, 1], "pairs": {"1": 2}},
        *(spec for spec, _ in WRONG_TYPES),
    ])
    def test_bad_spec_fields(self, capsys, tmp_path, spec):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        code, out, err = run(capsys, "eg", "--spec", str(path))
        assert (code, out) == (EXIT_PARSE, "")
        assert err.startswith("error: ")

    @pytest.mark.parametrize("spec, field", WRONG_TYPES)
    def test_wrong_type_names_the_field(self, capsys, tmp_path, spec, field):
        # decompose ran a bool permutation into a matmul shape error
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        code, out, err = run(capsys, "decompose", "--spec", str(path))
        assert (code, out) == (EXIT_PARSE, "")
        assert err.startswith(f"error: {field!r} must be ")

    def test_pairs_key_listed_twice(self, capsys, tmp_path):
        # a JSON object keeps only its last duplicate key; a list keeps both
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"kind": "lookup-table", "l": 2,
                                    "pairs": [["01", 1], ["01", 5]]}))
        code, out, err = run(capsys, "decompose", "--spec", str(path))
        assert (code, out, err) == (EXIT_PARSE, "", "error: key '01' is listed twice\n")

    def test_internal_value_error_is_not_a_parse_error(self, capsys, monkeypatch):
        from epilink import graph

        def broken(problem, cap):
            raise ValueError("internal bug")

        monkeypatch.setattr(graph, "build_eg", broken)
        with pytest.raises(ValueError, match="internal bug"):
            main(["eg", "--kind", "ctrap", "--m", "1"])


def declared_options():
    """Each subcommand's settable option destinations, in declaration order."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {name: [a.dest for a in p._actions if a.dest != "help"]
            for name, p in sub.choices.items()}


class TestOptionsAreRead:
    """Every option a subcommand declares is read when it runs."""

    def test_declared_option_count(self):
        assert {name: len(dests) for name, dests in declared_options().items()} == {
            "eg": 9, "decompose": 9, "ipe": 11, "verify": 9, "pac-sweep": 11,
            "weak-observability": 7, "list-problems": 1,
        }

    @pytest.mark.parametrize("argv", [
        ["eg", "--kind", "onemax", "--l", "4", "--epistasis-order-bound", "1"],
        ["decompose", "--kind", "onemax", "--l", "4"],
        ["ipe", "--kind", "onemax", "--l", "4", "--n", "4"],
        ["verify", "--kind", "onemax", "--l", "4", "--weak-order", "1"],
        ["pac-sweep", "--kind", "onemax", "--l", "4", "--n-values", "4", "--runs", "2"],
        ["weak-observability", "--runs", "2", "--blocks", "2", "--population-sizes", "10",
         "--population", "10", "--generations", "1"],
        ["list-problems"],
    ], ids=lambda argv: argv[0])
    def test_every_declared_option_is_read(self, capsys, argv):
        reads = set()

        class Recorder(argparse.Namespace):
            def __getattribute__(self, name):
                reads.add(name)
                return super().__getattribute__(name)

        parse = argparse.ArgumentParser.parse_args

        def parse_into_recorder(parser, args=None, namespace=None):
            parsed = parse(parser, args, Recorder())
            command = parsed.func

            def counted(args):
                # argparse reads every default, and main's own checks read
                # the seed and output: only the command's reads count
                reads.clear()
                return command(args)

            parsed.func = counted
            return parsed

        with patch.object(argparse.ArgumentParser, "parse_args", parse_into_recorder):
            assert main(argv) == EXIT_OK
        capsys.readouterr()
        unread = set(declared_options()[argv[0]]) - reads
        assert not unread, f"{argv[0]} never reads {sorted(unread)}"
