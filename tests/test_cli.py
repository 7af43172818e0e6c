"""End-to-end command-line behaviour: exit codes, determinism, output formats."""

import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from saxl.cli import main
from saxl.criteria import _c2_witness_scalars as _real_c2_witness_scalars
from saxl.criteria import _c3_half_norm as _real_c3_half_norm


REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"


def _swapped(pair):
    return pair[1], pair[0]


def _saxl(argv, timeout=300, **env):
    """``saxl argv`` run in a fresh interpreter within ``timeout`` seconds,
    with ``env`` added to its environment."""
    env = dict(os.environ, **env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    code = "import sys; from saxl.cli import main; sys.exit(main(sys.argv[1:]))"
    return subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True, timeout=timeout)


def _refuse_every_build(monkeypatch):
    """Make every field, induced block action, certificate and chain raise."""
    from saxl import actions
    from saxl.group import StabChain

    def refuse(*args, **kwargs):
        raise RuntimeError("action built before its refusal")

    for name in ("field_create", "_induced", "_certified"):
        monkeypatch.setattr(actions, name, refuse)
    monkeypatch.setattr(StabChain, "__init__", refuse)


@pytest.fixture()
def frobenius_catalogue(tmp_path):
    """A five-point Frobenius group of order 20; every distinct pair is a base."""
    text = (
        "name F20\n"
        "degree 5\n"
        "gen (1,2,3,4,5)\n"
        "gen (2,3,5,4)\n"
        "expect order 20\n"
    )
    path = tmp_path / "cat.txt"
    path.write_text(text)
    return str(path)


SWEEPS = [
    "table-rows", "c2-oracle", "c3-oracle", "johnson", "counts", "star",
    "witnesses", "euler", "clique5", "closed-forms", "cliques", "estimates",
]

# (argv, the option it gives that no part of the run reads)
UNREAD_OPTIONS = [
    ("analyze --ksubsets 5 2 --q 9", "--q"),
    ("graph --ksubsets 5 2 --variant pgl", "--variant"),
    ("analyze --catalogue M11 --j 2", "--j"),
    ("graph --psl2 c2 --q 9 --variant psigma --j 1", "--j"),
    ("analyze --psl2 c2 --q 7 --alternating", "--alternating"),
    ("analyze --ksubsets 5 2 --catalogue-path absent.txt", "--catalogue-path"),
    ("graph --psl2 c2 --q 7 --catalogue-path absent.txt", "--catalogue-path"),
    ("graph --ksubsets 5 2 --exact-cap 5", "--exact-cap"),
    ("analyze --ksubsets 5 2 --exact-cap 5", "--exact-cap"),
    *(("verify %s --qmax 5" % s, "--qmax") for s in ("table-rows", "estimates", "euler")),
    *(("verify %s --nmax 10" % s, "--nmax") for s in SWEEPS if s != "euler"),
    *(("verify %s --per-field 5" % s, "--per-field") for s in SWEEPS if s != "witnesses"),
    ("verify witnesses --qmax 13 --per-field 1", "--per-field"),
    *(
        ("verify %s --catalogue-path absent.txt" % s, "--catalogue-path")
        for s in SWEEPS
        if s not in ("table-rows", "star", "estimates")
    ),
]


class TestExitCodes:
    def test_cap_exceeded_is_2(self, capsys):
        code = main(["graph", "--ksubsets", "6", "2", "--point-cap", "5"])
        assert code == 2
        assert "cap exceeded" in capsys.readouterr().err

    HUGE_PRIME = 10**18 + 3  # trial division to its square root would run for hours

    @pytest.mark.parametrize(
        "kind, degree",
        [("c2", HUGE_PRIME * (HUGE_PRIME + 1) // 2), ("c3", HUGE_PRIME * (HUGE_PRIME - 1) // 2)],
        ids=["c2", "c3"],
    )
    def test_huge_prime_q_meets_the_point_cap_before_it_is_factored(self, kind, degree):
        done = _saxl(["analyze", "--psl2", kind, "--q", str(self.HUGE_PRIME)], timeout=20)
        assert done.returncode == 2
        assert done.stdout == b""
        assert done.stderr.decode() == "cap exceeded: degree %d exceeds point cap 100000\n" % degree

    @pytest.mark.parametrize("kind", ["c2", "c3"])
    def test_huge_prime_q_past_the_point_cap_meets_the_group_cap(self, kind):
        # q is split by integer roots and a Miller-Rabin test, so the run
        # reaches the group cap at once
        argv = ["analyze", "--psl2", kind, "--q", str(self.HUGE_PRIME), "--point-cap", str(10**40)]
        done = _saxl(argv, timeout=20)
        order = self.HUGE_PRIME * (self.HUGE_PRIME**2 - 1) // 2
        assert done.returncode == 2
        assert done.stdout == b""
        assert done.stderr.decode() == "cap exceeded: group order %d exceeds cap 10000000\n" % order

    @pytest.mark.parametrize(
        "argv", ["analyze --catalogue M11 --group-cap 10", "graph --catalogue M11 --point-cap 10"]
    )
    def test_catalogue_cap_exceeded_is_2(self, capsys, argv):
        # M11 has order 7920 and acts on 11 points
        assert main(argv.split()) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("cap exceeded: ")

    def test_catalogue_group_cap_is_checked_before_any_chain(self, capsys, monkeypatch):
        from saxl.group import StabChain

        def refuse(self, *args, **kwargs):
            raise RuntimeError("a chain was built before the group cap was checked")

        monkeypatch.setattr(StabChain, "__init__", refuse)
        assert main(["analyze", "--catalogue", "M11", "--group-cap", "10"]) == 2
        assert capsys.readouterr().err == "cap exceeded: group order 7920 exceeds cap 10\n"

    def test_catalogue_degree_over_the_point_cap_is_refused_at_its_line(self, capsys, monkeypatch, tmp_path):
        from saxl import actions

        def refuse(*args, **kwargs):
            raise RuntimeError("a generator was parsed past the point cap")

        monkeypatch.setattr(actions, "parse_cycles", refuse)
        path = tmp_path / "cat.txt"
        path.write_text("name Big\ndegree 2000000\ngen (1,2)\nexpect order 2\n")
        assert main(["analyze", "--catalogue", "Big", "--catalogue-path", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "cap exceeded: line 2: degree 2000000 exceeds point cap 100000\n"
        # above the degree, the same file reaches its generator line
        with pytest.raises(RuntimeError, match="parsed past"):
            main(["analyze", "--catalogue", "Big", "--catalogue-path", str(path), "--point-cap", "2000000"])

    def test_field_cap_exceeded_is_2(self, capsys, monkeypatch):
        from saxl import cli

        # GF(11^3) fits, and GF(11^6) is above gf.FIELD_SIZE_CAP
        monkeypatch.setattr(cli, "_clique5_fields", lambda qmax: [1331])
        assert main(["verify", "clique5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("cap exceeded: ")

    def test_exact_cap_is_checked_before_the_graph(self, capsys, monkeypatch):
        from saxl import engine

        def refuse(action):
            raise RuntimeError("graph built before the exact-search cap was checked")

        monkeypatch.setattr(engine, "saxl_graph", refuse)
        # S8 on 2-subsets has 28 points
        argv = ["analyze", "--ksubsets", "8", "2", "--no-classes", "--no-star", "--exact", "--exact-cap", "10"]
        assert main(argv) == 2
        assert capsys.readouterr().err == "cap exceeded: degree 28 exceeds exact-search cap 10\n"

    @pytest.mark.parametrize(
        "argv, code, err",
        [
            ('analyze --psl2 c2 --q 6 --exact', 1, 'error: 6 is not a prime power\n'),
            ('analyze --psl2 c2 --q 3 --exact', 1, 'error: need q >= 4\n'),
            ('analyze --psl2 c3 --q 8 --exact', 1, 'error: the unitary-model action needs odd q >= 5\n'),
            ('analyze --psl2 c3 --q 3 --exact', 1, 'error: the unitary-model action needs odd q >= 5\n'),
            ('analyze --psl2 c2 --q 243 --exact --point-cap 1000', 2, 'cap exceeded: degree 29646 exceeds point cap 1000\n'),
            ('analyze --psl2 c2 --q 243 --variant psigma --exact', 2, 'cap exceeded: group order 35871660 exceeds cap 10000000\n'),
            ('analyze --psl2 c2 --q 243 --no-classes --no-star --exact', 2, 'cap exceeded: degree 29646 exceeds exact-search cap 2000\n'),
            ('analyze --psl2 c3 --q 121 --exact', 2, 'cap exceeded: degree 7260 exceeds exact-search cap 2000\n'),
            ('analyze --psl2 c3 --q 125 --variant pgamma --exact --group-cap 1000', 2, 'cap exceeded: group order 5859000 exceeds cap 1000\n'),
            ('analyze --ksubsets 8 2 --exact --exact-cap 10', 2, 'cap exceeded: degree 28 exceeds exact-search cap 10\n'),
            ('analyze --ksubsets 12 2 --exact', 2, 'cap exceeded: group order 479001600 exceeds cap 10000000\n'),
            ('analyze --ksubsets 2 1 --alternating --exact --exact-cap 1', 1, 'error: alternating groups need n >= 3\n'),
            ('analyze --ksubsets 2 1 --alternating --exact --point-cap 1', 1, 'error: alternating groups need n >= 3\n'),
            ('analyze --ksubsets 3 3 --exact', 1, 'error: need 1 <= k < n\n'),
            ('analyze --ksubsets 500 2 --exact', 2, 'cap exceeded: degree 124750 exceeds point cap 100000\n'),
            ('analyze --psl2 c2 --q 7 --exact --exact-cap 27', 2, 'cap exceeded: degree 28 exceeds exact-search cap 27\n'),
            ('analyze --psl2 c2 --q 7 --variant dphi --j 1 --exact', 1, 'error: DeltaPhi(j=1) is not a valid variant for q=7\n'),
            ('analyze --psl2 c2 --q 9 --variant dphi --j 1 --exact --exact-cap 44', 2, 'cap exceeded: degree 45 exceeds exact-search cap 44\n'),
        ],
    )
    def test_exact_cap_is_checked_before_the_build(self, capsys, monkeypatch, argv, code, err):
        # invalid arguments come first, then the point, group and exact
        # caps, and no field, block, certificate or chain is built before
        _refuse_every_build(monkeypatch)
        assert main(argv.split()) == code
        assert capsys.readouterr().err == err

    @pytest.mark.parametrize(
        "argv, err",
        [
            ("analyze --catalogue PGL2_13_S4 --point-cap 20", "degree 91 exceeds point cap 20"),
            ("analyze --catalogue M11 --exact --exact-cap 5", "degree 11 exceeds exact-search cap 5"),
        ],
    )
    def test_catalogue_caps_are_checked_before_any_chain(self, capsys, monkeypatch, argv, err):
        # the entry's declared index (2184 / 24) or degree meets the caps
        _refuse_every_build(monkeypatch)
        assert main(argv.split()) == 2
        assert capsys.readouterr().err == "cap exceeded: %s\n" % err

    def test_exact_cap_is_checked_before_the_analysis(self, capsys, monkeypatch):
        from saxl import engine

        def refuse(action):
            raise RuntimeError("suborbits analysed before the exact-search cap was checked")

        monkeypatch.setattr(engine, "_analysis", refuse)
        argv = ["analyze", "--ksubsets", "8", "2", "--no-classes", "--no-star", "--exact", "--exact-cap", "10"]
        assert main(argv) == 2
        assert capsys.readouterr().err == "cap exceeded: degree 28 exceeds exact-search cap 10\n"

    def test_graph_cap_is_checked_before_the_suborbit_table(self, capsys, monkeypatch):
        from saxl import engine

        def refuse(action):
            raise RuntimeError("suborbit table built before the graph cap was checked")

        monkeypatch.setattr(engine, "_analysis", refuse)
        monkeypatch.setattr(engine, "GRAPH_CAP", 10)
        assert main(["graph", "--ksubsets", "8", "2"]) == 2
        assert capsys.readouterr().err == "cap exceeded: degree 28 exceeds graph cap 10\n"

    def test_group_cap_reads_only_the_selected_entry(self, capsys):
        # S7 (order 5040) fits; A9 and M11, in the same catalogue, would not
        assert main(["analyze", "--catalogue", "S7_AGL17", "--group-cap", "6000", "--no-classes"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["n"] * report["stab_order"] == 5040

    @pytest.mark.parametrize("argv, option", UNREAD_OPTIONS)
    def test_unread_option_is_1(self, capsys, argv, option):
        assert main(argv.split()) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("error: %s " % option)

    def test_unknown_catalogue_name_is_1(self, capsys):
        code = main(["analyze", "--catalogue", "NoSuchEntry"])
        assert code == 1
        err = capsys.readouterr().err
        assert "unknown catalogue entry" in err
        assert "M11_2S4" in err  # the error lists what is available

    def test_unknown_sweep_is_1(self, capsys):
        code = main(["verify", "frobnicate"])
        assert code == 1
        assert "unknown sweep" in capsys.readouterr().err

    def test_psl2_without_q_is_1(self, capsys):
        assert main(["graph", "--psl2", "c2"]) == 1
        assert "--q" in capsys.readouterr().err

    def test_no_action_spec_is_1(self, capsys):
        assert main(["analyze"]) == 1
        assert "exactly one" in capsys.readouterr().err

    def test_two_action_specs_is_1(self, capsys):
        assert main(["analyze", "--ksubsets", "5", "2", "--psl2", "c2", "--q", "9"]) == 1
        assert "exactly one" in capsys.readouterr().err

    def test_nonpositive_cap_is_1(self, capsys):
        assert main(["analyze", "--ksubsets", "5", "2", "--point-cap", "0"]) == 1
        assert "positive" in capsys.readouterr().err

    def test_missing_catalogue_file_is_1(self, capsys, tmp_path):
        path = str(tmp_path / "absent.txt")
        assert main(["analyze", "--catalogue", "X", "--catalogue-path", path]) == 1

    @pytest.mark.parametrize("argv", ["table-rows", "star --qmax 4", "estimates"])
    def test_catalogue_without_a_fixture_is_1(self, capsys, tmp_path, argv):
        from saxl.actions import bundled_catalogue_path

        entries = bundled_catalogue_path().read_text().split("\n\n")
        path = tmp_path / "cat.txt"
        path.write_text("\n\n".join(e for e in entries if not e.startswith("name A9_ASL23\n")))
        assert main(["verify", *argv.split(), "--catalogue-path", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: catalogue %s has no entry 'A9_ASL23'\n" % path

    @pytest.mark.parametrize("target", ["1", "0"])
    def test_clique_target_below_2_is_refused_before_the_build(self, capsys, monkeypatch, target):
        from saxl import cli

        def refuse(args):
            raise RuntimeError("action built before --clique-target was refused")

        monkeypatch.setattr(cli, "build_action", refuse)
        assert main(["analyze", "--psl2", "c2", "--q", "121", "--clique-target", target]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: target must be at least 2\n"

    def test_one_point_catalogue_group_is_analysed(self, tmp_path):
        # the trivial group has no non-identity generator to take a degree from
        path = tmp_path / "cat.txt"
        path.write_text("name X\ndegree 1\ngen ()\nexpect order 1\n")
        done = _saxl(["analyze", "--catalogue", "X", "--catalogue-path", str(path)])
        assert done.returncode == 0 and b"Traceback" not in done.stderr, done.stderr.decode()
        report = json.loads(done.stdout)
        assert (report["n"], report["regular_count"], report["q_exact"]) == (1, 1, {"num": 0, "den": 1})

    def test_intransitive_catalogue_group_is_1(self, capsys, tmp_path):
        # no 'sub gen' lines: the natural action, refused before it is certified
        path = tmp_path / "cat.txt"
        path.write_text("name X\ndegree 4\ngen (1,2)\ngen (3,4)\nexpect order 4\n")
        assert main(["analyze", "--catalogue", "X", "--catalogue-path", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: X is not transitive on its 4 points\n"

    def test_cross_check_failure_is_3(self, capsys, monkeypatch):
        from saxl import engine

        # a Q-hat below Q breaks the estimate chain Q <= Q-hat <= Q-tilde
        monkeypatch.setattr(engine, "q_hat", lambda action: Fraction(-1))
        assert main(["analyze", "--ksubsets", "5", "2"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cross-check failed: estimate chain")
        assert captured.err.count("\n") == 1

    def test_action_order_check_is_3(self, capsys, monkeypatch):
        from saxl.group import StabChain

        # a wrong chain order trips the certificate's order check of the
        # carrier group, S5 on its 5 points
        monkeypatch.setattr(StabChain, "order", lambda self: 7)
        assert main(["analyze", "--ksubsets", "5", "2"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: cross-check failed: S5/2-subsets: carrier order 7, expected 120\n"

    def test_swapped_label_generators_are_3(self, capsys, monkeypatch):
        from saxl import actions

        # the label images of u and d swapped: each label generator is then
        # the block action of another carrier generator than its own, which
        # the rank form sees before any chain is built
        induced = actions._induced

        def swapped(blocks, carrier_gens):
            gens = induced(blocks, carrier_gens)
            return [gens[1], gens[0], *gens[2:]]

        monkeypatch.setattr(actions, "_induced", swapped)
        assert main(["analyze", "--psl2", "c2", "--q", "7"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: cross-check failed: PSL2(7)/proj-pairs: a label generator is not the rank form of its carrier generator\n"
        )

    def test_witness_check_is_3(self, capsys, monkeypatch):
        from saxl import criteria

        # a transfer that misses (-b, -c) trips the c2 witness self-check
        monkeypatch.setattr(criteria, "c2_neighbour_transfer", lambda F, b, c, d, e: (d, e))
        assert main(["verify", "witnesses", "--per-field", "1"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: cross-check failed: witness transfer does not reach (-b, -c)\n"

    # one fault per re-check of the log-array criteria: (function to replace,
    # its stand-in, sweep, the check's message)
    ARRAY_FAULTS = {
        "transfer image": (
            "_c3_push_forward", lambda F2, q, b, A, d: np.broadcast_to(b, np.shape(d)),
            "verify c3-oracle --qmax 5", "transfer image misses the target point",
        ),
        "isotropic transfer scalar": (
            # b^((q-1)/2) with b^(q+1) = -1: an isotropic log, never A or -b^(q+1) A
            "_c3_pull_back", lambda F2, q, b, A, c: np.full(np.shape(c), (q - 1) // 2),
            "verify c3-oracle --qmax 5", "transfer scalar is isotropic",
        ),
        "-d/e identity": (
            # swapping d and e keeps every earlier check, but -e/d != -d/e
            "_c2_witness_scalars", lambda F, b, c: _swapped(_real_c2_witness_scalars(F, b, c)),
            "verify witnesses --qmax 9", "witness identity -d/e = -4/(b/c + c/b + 2) fails",
        ),
        "half-norm identity": (
            # lambda times the predicted half-norm is neither it nor its negative
            "_c3_half_norm", lambda F2, q, b: (_real_c3_half_norm(F2, q, b) + 1) % (F2.q - 1),
            "verify witnesses --qmax 9", "half-norm identity fails",
        ),
    }

    @pytest.mark.parametrize("fault", list(ARRAY_FAULTS))
    def test_array_recheck_is_3(self, capsys, monkeypatch, fault):
        from saxl import criteria

        name, stand_in, argv, message = self.ARRAY_FAULTS[fault]
        monkeypatch.setattr(criteria, name, stand_in)
        assert main(argv.split()) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: cross-check failed: %s\n" % message

    def test_totient_sieve_check_is_3(self, capsys, monkeypatch):
        from saxl import gf

        def without_cofactor(lo, hi, moduli):
            # the sieve passes alone: n with a prime factor above isqrt(N) misses its p - 1
            return gf._phi_passes(lo, hi, moduli)[0]

        monkeypatch.setattr(gf, "_phi_block", without_cofactor)
        assert main(["verify", "euler", "--nmax", "20000"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cross-check failed: sieved phi(")
        assert captured.err.count("\n") == 1

    def test_usage_error_exits_1(self):
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code == 1


class TestAnalyze:
    def test_frobenius_report(self, capsys, frobenius_catalogue):
        code = main(["analyze", "--catalogue", "F20", "--catalogue-path", frobenius_catalogue])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["schema"] == 1
        assert report["name"] == "F20"
        assert report["n"] == 5
        assert report["stab_order"] == 4
        assert Fraction(report["q_exact"]["num"], report["q_exact"]["den"]) == Fraction(1, 5)
        assert report["regular_count"] == 1
        assert report["star_ok"] is True

    def test_byte_identical_runs(self, capsys):
        assert main(["analyze", "--psl2", "c2", "--q", "9"]) == 0
        first = capsys.readouterr().out
        assert main(["analyze", "--psl2", "c2", "--q", "9"]) == 0
        assert capsys.readouterr().out == first

    def test_q5_warning_lands_in_report(self, capsys):
        assert main(["analyze", "--psl2", "c2", "--q", "5"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert any("q = 5" in w for w in report["warnings"])

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        assert main(["analyze", "--ksubsets", "5", "2"]) == 0
        stdout = capsys.readouterr().out
        target = tmp_path / "report.json"
        assert main(["analyze", "--ksubsets", "5", "2", "--out", str(target)]) == 0
        assert target.read_text() == stdout

    def test_section_toggles(self, capsys):
        assert main(["analyze", "--ksubsets", "5", "2", "--no-classes", "--no-star"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["q_hat"] is None
        assert report["star_ok"] is None

    def test_exact_search(self, capsys):
        assert main(["analyze", "--ksubsets", "5", "2", "--alternating", "--exact"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["clique_exact"] == 4
        assert report["independence_exact"] == 2


class TestGraph:
    def test_complete_graph_edges(self, capsys, frobenius_catalogue):
        code = main([
            "graph", "--catalogue", "F20", "--catalogue-path", frobenius_catalogue,
            "--format", "edges",
        ])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 10  # K5
        assert lines[0] == "0 1"

    def test_dot_format_default(self, capsys, frobenius_catalogue):
        code = main(["graph", "--catalogue", "F20", "--catalogue-path", frobenius_catalogue])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("graph {")
        assert "0 -- 1;" in out

    def test_q5_warning_goes_to_stderr(self, capsys):
        assert main(["graph", "--psl2", "c2", "--q", "5"]) == 0
        captured = capsys.readouterr()
        assert "q = 5" in captured.err
        assert captured.out.startswith("graph {")

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        argv = ["graph", "--psl2", "c2", "--q", "9", "--format", "edges"]
        assert main(argv) == 0
        stdout = capsys.readouterr().out
        target = tmp_path / "graph.txt"
        assert main([*argv, "--out", str(target)]) == 0
        assert capsys.readouterr().out == ""
        assert target.read_bytes() == stdout.encode()

    def test_variant_selector(self, capsys):
        assert main(["graph", "--psl2", "c2", "--q", "9", "--variant", "psigma", "--format", "edges"]) == 0
        psigma = capsys.readouterr().out
        assert main(["graph", "--psl2", "c2", "--q", "9", "--format", "edges"]) == 0
        psl = capsys.readouterr().out
        # extending the group can only delete base pairs
        assert set(psigma.splitlines()) <= set(psl.splitlines())


class TestVerify:
    def test_euler_sweep_payload(self, capsys):
        code = main(["verify", "euler", "--nmax", "20000"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == 1
        assert payload["sweep"] == "euler"
        assert payload["ok"] is True
        assert payload["checks"]
        assert all(c["ok"] for c in payload["checks"])
        assert {"name", "ok", "detail"} <= set(payload["checks"][0])

    def test_johnson_sweep(self, capsys):
        code = main(["verify", "johnson"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True

    def test_counts_sweep_honours_qmax(self, capsys):
        code = main(["verify", "counts", "--qmax", "25"])
        assert code == 0
        names = [c["name"] for c in json.loads(capsys.readouterr().out)["checks"]]
        assert "c2-counts q=25" in names
        assert not any("q=49" in name for name in names)

    def test_witnesses_sweep_fails_without_inputs(self, capsys, monkeypatch):
        from saxl import cli, criteria

        # the engine-checked witness loops find nothing to check
        monkeypatch.setattr(criteria, "c2_base_candidates", lambda F, limit: (np.empty(0, dtype=np.int64),) * 2)
        monkeypatch.setattr(cli, "c3_label_logs", lambda F2, q: [])
        assert main(["verify", "witnesses", "--per-field", "1"]) == 1
        checks = json.loads(capsys.readouterr().out)["checks"]
        engine_checked = [c for c in checks if "engine-checked" in c["name"]]
        assert len(engine_checked) == 4
        assert all(not c["ok"] and c["detail"] == "0 inputs" for c in engine_checked)

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "clique5", "--qmax", "10"],
            ["verify", "c2-oracle", "--qmax", "3"],
            ["verify", "c3-oracle", "--qmax", "3"],
            ["verify", "johnson", "--qmax", "3"],
            ["verify", "johnson", "--qmax", "0"],
            ["verify", "counts", "--qmax", "3"],
        ],
    )
    def test_sweep_without_checks_fails(self, capsys, argv):
        assert main(argv) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["checks"] == []
        assert payload["ok"] is False

    @pytest.mark.parametrize("per_field", ["0", "-3"])
    def test_nonpositive_per_field_is_1(self, capsys, per_field):
        assert main(["verify", "witnesses", "--per-field", per_field]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("error: --per-field")

    @pytest.mark.parametrize("nmax", ["-5", "2"])
    def test_nmax_below_3_is_1(self, capsys, nmax):
        # the totient scan starts at n = 3
        assert main(["verify", "euler", "--nmax", nmax]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --nmax must be at least 3, got %s\n" % nmax

    @staticmethod
    def _failed_check(capsys, name):
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        return [c for c in payload["checks"] if c["name"] == name and not c["ok"]]

    def test_clique5_rechecks_the_edges(self, capsys, monkeypatch):
        from saxl import criteria

        real = criteria.c2_clique5

        def with_a_non_edge(F):
            # the last pair shares a projective point with the one before it
            verts = real(F)
            return verts[:4] + [(verts[3][0], verts[4][1])]

        monkeypatch.setattr(criteria, "c2_clique5", with_a_non_edge)
        assert main(["verify", "clique5", "--qmax", "49"]) == 1
        assert self._failed_check(capsys, "clique5 q=49")

    @pytest.mark.parametrize("budget", ["_C2_CLIQUE5_ANCHORS", "_C3_CLIQUE5_ANCHORS"])
    @pytest.mark.parametrize("sweep,check", [("clique5", "clique5 q=49"), ("cliques", "clique5 q=49 (engine-checked)")])
    def test_clique5_scan_that_finds_none_fails_its_check(self, capsys, monkeypatch, budget, sweep, check):
        from saxl import criteria

        # with no anchors to try, the scan finds no 5-clique
        monkeypatch.setattr(criteria, budget, 0)
        assert main(["verify", sweep, "--qmax", "50"]) == 1
        assert self._failed_check(capsys, check)

    def test_closed_forms_sweep_compares_the_forms(self, capsys, monkeypatch):
        from saxl import criteria

        monkeypatch.setattr(criteria, "remark_q_closed_forms", lambda q, kind: Fraction(1, 2))
        assert main(["verify", "closed-forms", "--qmax", "8"]) == 1
        assert self._failed_check(capsys, "closed-form PGL_Dq_minus_1 q=8")

    def test_estimates_sweep_orders_the_estimates(self, capsys, monkeypatch):
        from saxl import cli

        monkeypatch.setattr(cli, "q_hat", lambda action: cli.q_tilde(action) + 1)
        assert main(["verify", "estimates"]) == 1
        assert self._failed_check(capsys, "estimates S7_AGL17")

    def test_witnesses_sweep_honours_qmax(self, capsys):
        assert main(["verify", "witnesses", "--qmax", "13"]) == 0
        names = [c["name"] for c in json.loads(capsys.readouterr().out)["checks"]]
        assert names == [
            "c2-witness q=9 (engine-checked)", "c2-witness q=13 (engine-checked)",
            "c3-witness q=9 (engine-checked)", "c3-witness q=13 (engine-checked)",
        ]

    def test_star_sweep_honours_qmax(self, capsys):
        # past the default of 27, every prime power up to --qmax is swept
        assert main(["verify", "star", "--qmax", "32"]) == 0
        checks = json.loads(capsys.readouterr().out)["checks"]
        qs = [int(c["name"].split("q=")[1].split("(")[0]) for c in checks if "q=" in c["name"]]
        assert sorted(set(q for q in qs if q > 27)) == [29, 31, 32]
        assert all(c["ok"] for c in checks)

    def test_star_sweep_skips_only_refused_variants(self, capsys, monkeypatch):
        # a ValueError from inside a constructor ends the sweep with an error,
        # where a variant that GroupVariant refuses is skipped
        from saxl import cli

        build = cli.psl2_c3_action

        def failing(variant):
            if variant.q == 13:
                raise ValueError("labels are not transitive")
            return build(variant)

        monkeypatch.setattr(cli, "psl2_c3_action", failing)
        assert main(["verify", "star", "--qmax", "13"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: labels are not transitive\n"
        assert captured.out == ""

    def test_clique5_qmax_is_inclusive(self, capsys):
        assert main(["verify", "clique5", "--qmax", "49"]) == 0
        names = [c["name"] for c in json.loads(capsys.readouterr().out)["checks"]]
        assert names == ["clique5 q=49"]

    def test_verify_out_file(self, capsys, tmp_path):
        target = tmp_path / "euler.json"
        code = main(["verify", "euler", "--nmax", "5000", "--out", str(target)])
        assert code == 0
        assert json.loads(target.read_text())["ok"] is True


def test_benchmark_probe_imports_cleanly():
    """A benchmark child's set-up probe, as the benchmark spawns it: it
    imports numpy and saxl.cli from this checkout and prints ready."""
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "PYTHONDONTWRITEBYTECODE")}
    done = subprocess.run(
        [sys.executable, str(REPO / "perfbench" / "child.py"), "--probe"], env=env, capture_output=True, timeout=60
    )
    assert done.returncode == 0, done.stderr.decode()
    assert done.stdout == b"ready\n"


class TestHashSeeds:
    """Permutation hashes are salted per process, so no output may follow the
    iteration order of a set or dict of permutations."""

    def _stdout(self, argv, seed):
        done = _saxl(argv, PYTHONHASHSEED=seed)
        assert done.returncode == 0, done.stderr.decode()
        assert done.stdout
        return done.stdout

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "--psl2", "c2", "--q", "13", "--variant", "psigma"],
            ["graph", "--psl2", "c2", "--q", "13", "--variant", "psigma", "--format", "edges"],
            ["analyze", "--catalogue", "PGL2_13_S4"],
        ],
    )
    def test_stdout_is_identical_across_hash_seeds(self, argv):
        first = self._stdout(argv, "1")
        for seed in ("2", "3"):
            assert self._stdout(argv, seed) == first


class TestGoldens:
    """sha256 of stdout for commands that no perfbench golden covers, each
    pinned from the output before a refactor of the code under it.  CI runs
    this class under two hash seeds."""

    DIGESTS = {
        "verify c2-oracle --qmax 13": "d40d3c4c4ef4dd55ced519b6dfb4cf9cdd1fb6ceb076d037bac6255e6609021b",
        "verify c3-oracle --qmax 13": "9adbc0ba4c75694e37a0ca2296bb438d7d0d51d0444193b2dff4a089efac233f",
        "verify johnson": "19ab25c0d9b7e14d301635204c21a05b1aa17f19a65d8c2f6209fb466510c543",
        "verify counts": "911f12c6da73d73fd738fe890e20f7dbcd32f1f2c0100fa89c7ec562b6f8658c",
        "verify table-rows": "4735538aeb5a55ed3a39cbb44527199c722f83d79be7c53414360c0d42457aff",
        "analyze --psl2 c2 --q 9 --variant pgamma": "7ca907ffb8a9f191eb97cc59a7a2cf18d2f38ab382d93f3a5eede4a462afa9ca",
        "analyze --psl2 c3 --q 9 --variant pgamma": "0edc26ca387f51684eb78d7de2e5eb0950c876e2b0944b7e85a4bb70ad09a09c",
        "verify star": "f1efa8a6b0ca4188daf4fbca64a36efc9925053a192d74a18ee6b527a2302c3b",
        "analyze --ksubsets 6 2 --exact": "ba918a3d926b5c3cbe92956f0c73e4f1bdbcfa56cc2b6ecc0716d86ac7e3930b",
        "analyze --ksubsets 7 3 --alternating": "ce2d7c59a7393697a61380620b93f811ff22262766f293122e2277651f00ddaf",
        "analyze --catalogue L3_3_O3": "d3002185feb41c92885e69e23b8e52d2903035264e73be9663a9354cfac8ad67",
        "analyze --catalogue M11": "ab6a6697c90b9760de0c47d993f9d8e5ff3b5c9e049fe099200d42930d11f57e",
        "graph --ksubsets 10 2 --format edges": "01ba4719c80b6fe911b091a7c05124b64eeece964e09c058ef8f9805daca546b",
        "verify closed-forms": "a43af65fbbdeddaed12c8acbb2799462f1d1f6e3051557e9a19d0de6e3e88690",
        "verify cliques": "0b604a0ea700d82d0e66ba18df1a3bb3e5d05d71ebaba17472b7268c6fd55ad0",
        "verify witnesses": "c52ce27baaaae58d5ef8cbfbefa5a5c2644d9c58ca199c1f71c42059a85d06af",
        "verify estimates": "13d5c6c705f3808ba4f82744111b6c68d84a9dd06c40c897590562c57859808f",
        "analyze --psl2 c2 --q 121 --no-classes": "e1c46f0d17b1c850149132d0a54709a292c1b5f8a7b1f81cb7c824069b8bb638",
        "analyze --psl2 c3 --q 121 --no-classes": "3dcfa8fef36660e96a6deecfc9a7c878d306caa5111395df01df31420e242ef7",
        "analyze --psl2 c2 --q 121": "fc52622ba66e341c5b5aa8f5db6c01086a2a2129925d5618f08f144f78d03866",
        "analyze --psl2 c3 --q 81": "37e6346c617357245b0cd1d8f9962bf729528260178203b3f4a411d4624c4267",
        "analyze --psl2 c2 --q 81 --variant pgamma": "2b736cf3da5227b6908bd6b143d2ecbcc13e6c1f18867c4e5e2de1108e45c934",
        "analyze --psl2 c2 --q 81 --variant psigma": "3b61e8f792d4e04e2b238a78e3417f98a2fe7ab69cca2cb9f7a9d899b731c6ef",
    }

    @pytest.mark.parametrize("argv", list(DIGESTS))
    def test_stdout_digest(self, capsys, argv):
        assert main(argv.split()) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == self.DIGESTS[argv]
