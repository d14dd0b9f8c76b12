import cmath
import hashlib
import json
import os
import re
import subprocess
import sys
from fractions import Fraction as F

import pytest

from sp4ps import gkmod, intertwine, sp4
from sp4ps.cli import MELLIN_GRID, _suites, main
from sp4ps.exact import Character
from sp4ps.gkmod import NONCOMPACT, action_matrix_json
from sp4ps.intertwine import KINDS, block_from_json


def test_ktypes_table(capsys):
    assert main(["ktypes", "--delta", "0,0", "--jmax", "2", "--nmax", "2"]) == 0
    out = capsys.readouterr().out
    assert "multiplicity" in out
    lines = [l.split() for l in out.strip().split("\n")[1:]]
    table = {(l[0], l[1]): int(l[2]) for l in lines}
    assert table[("2", "0")] == 3
    assert table[("2", "1")] == 2


def test_compute_roundtrip(tmp_path):
    out = str(tmp_path / "blocks")
    rc = main(["compute", "--kind", "LONG", "--delta", "0,0", "--lambda", "9/2,5/2",
               "--jmax", "1", "--nmax", "1", "--out", out, "--format", "json"])
    assert rc == 0
    files = sorted(os.listdir(out))
    assert files
    for name in files:
        bm, doc = block_from_json(open(os.path.join(out, name)).read())
        assert doc["lambda"] == ["9/2", "5/2"]
        back, _ = block_from_json(open(os.path.join(out, name)).read())
        assert back.entries == bm.entries


def test_compute_genfun_matches_long(tmp_path):
    a = str(tmp_path / "a")
    b = str(tmp_path / "b")
    args = ["--delta", "0,0", "--lambda", "9/2,5/2", "--jmax", "1", "--nmax", "1"]
    assert main(["compute", "--kind", "LONG", "--out", a] + args) == 0
    assert main(["compute", "--kind", "LONG_GENFUN", "--out", b] + args) == 0
    for name in sorted(os.listdir(a)):
        da = json.load(open(os.path.join(a, name)))
        db = json.load(open(os.path.join(b, name)))
        assert da["entries"] == db["entries"]


def test_pole_exit_code(capsys):
    rc = main(["compute", "--kind", "LONG", "--delta", "0,0", "--lambda", "1/2,3/2",
               "--jmax", "1", "--nmax", "1"])
    assert rc == 2
    assert "pole" in capsys.readouterr().err.lower()


@pytest.mark.parametrize("delta, lam, lam_complex, argument", [
    ("1,1", "9/2,5/2", "4.5+0i,2.5+0i", "11/4"),
    ("0,1", "7/2,1/2", "3.5+0i,0.5+0i", "9/4"),
])
def test_unsupported_exact_input_exit_code(tmp_path, capsys, delta, lam, lam_complex, argument):
    # a half-odd Pochhammer pair at a quarter-integer argument is finite but
    # has no exact form: exit 2, named as such and not as a pole
    args = ["compute", "--kind", "LONG", "--delta", delta, "--jmax", "1", "--nmax", "1"]
    assert main(args + ["--lambda", lam, "--out", str(tmp_path / "exact")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("unsupported exact input: stage A2 (argument %s):" % argument)
    assert "pole" not in err and "complex" in err
    # the float path the message points to computes these blocks
    out = tmp_path / "float"
    assert main(args + ["--lambda", lam_complex, "--out", str(out)]) == 0
    assert os.listdir(out)


def test_genfun_pole_names_block_and_factor(capsys):
    # the pole is the A4 Pochhammer pair at (lambda2+1)/2 = -1, named by the
    # generating-function route itself
    rc = main(["compute", "--kind", "LONG_GENFUN", "--delta", "1,1", "--lambda", "5,-3",
               "--jmax", "2", "--nmax", "2"])
    assert rc == 2
    assert capsys.readouterr().err.startswith(
        "pole error: block (0,-1): stage A4 Pochhammer pair (argument -1): ")


def test_genfun_degenerate_block_exit_code(tmp_path, capsys):
    rc = main(["compute", "--kind", "LONG_GENFUN", "--delta", "1,1", "--lambda", "7,2",
               "--jmax", "3", "--nmax", "3", "--out", str(tmp_path / "g")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("degenerate block (0,-3): ")
    assert "--kind LONG" in err


def test_compute_verbose_times_blocks(capsys):
    args = ["compute", "--kind", "LONG_GENFUN", "--delta", "0,0", "--lambda", "9/2,5/2",
            "--jmax", "1", "--nmax", "1"]
    assert main(args) == 0
    plain = capsys.readouterr()
    assert main(args + ["--verbose"]) == 0
    verbose = capsys.readouterr()
    assert verbose.out == plain.out and plain.err == ""
    lines = verbose.err.splitlines()
    assert [l.split()[:2] for l in lines] == [["block", "(0,0)"], ["block", "(1,-1)"],
                                              ["block", "(1,0)"], ["block", "(1,1)"]]
    assert all(re.fullmatch(r"block \(\S+\)  \d+x\d+  \d+\.\d{3}s", l) for l in lines)


def test_verify_unsupported_exact_input_exit_code(capsys):
    # the genfun cells meet a half-odd Pochhammer pair at 11/4: unsupported,
    # not a failed invariant, so verify exits 2 as compute does
    rc = main(["verify", "--delta", "1,1", "--lambda", "9/2,5/2", "--jobs", "1"])
    out = capsys.readouterr().out
    assert rc == 2
    assert "FAIL" not in out
    m = re.search(r"^  genfun +(\d+) cells  unsupported\(genfun-product-j=0-n=1: block \(0,1\): "
                  r"stage A2 Pochhammer pair \(argument 11/4\): ", out, re.M)
    summary = re.search(r"^(\d+)/(\d+) cells passed in \d+\.\ds; (\d+) unsupported", out, re.M)
    assert m and summary
    assert int(summary.group(2)) - int(summary.group(1)) == int(summary.group(3)) == int(m.group(1))


def test_negative_first_lambda_part_needs_the_equals_form(capsys):
    # argparse reads a value that starts with '-' as an option
    assert main(["compute", "--lambda=-1,0", "--jmax", "0", "--nmax", "0"]) == 0
    assert main(["compute", "--lambda=-7/2,1"]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["compute", "--lambda", "-7/2,1"])
    assert exc.value.code == 2
    assert "expected one argument" in capsys.readouterr().err


def test_config_error_exit_code():
    with pytest.raises(SystemExit):
        main(["compute", "--delta", "3,0"])


@pytest.mark.parametrize("lam", ["1/0,2", "nan,1", "inf+0i,1", "1,2-nani"])
def test_bad_lambda_is_a_config_error(capsys, lam):
    # a zero denominator or a non-finite part is rejected by the parser:
    # exit 2, naming the value, before anything is computed
    for cmd in ("compute", "verify"):
        with pytest.raises(SystemExit) as exc:
            main([cmd, "--lambda", lam])
        assert exc.value.code == 2
        assert "argument --lambda" in capsys.readouterr().err


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_verify_jobs_below_one_is_a_config_error(capsys, jobs):
    # rejected by the parser before the seed header is printed
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--jobs", jobs])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "argument --jobs" in err


def test_unwritable_out_is_a_config_error(tmp_path, capsys, monkeypatch):
    # --out naming an existing file fails before the block loop
    path = tmp_path / "taken"
    path.write_text("x")

    def no_blocks(*args):
        raise AssertionError("the blocks were computed before --out was checked")
    monkeypatch.setattr(intertwine, "long_operator_product", no_blocks)
    for out in (path, path / "sub"):
        assert main(["compute", "--jmax", "1", "--nmax", "1", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write to %s: " % out) and "Traceback" not in err
    assert path.read_text() == "x"


def test_unwritable_block_file_is_a_config_error(tmp_path, capsys):
    # the directory exists, but the block's file name is taken by a directory
    (tmp_path / "block_0_0.json").mkdir()
    assert main(["compute", "--kind", "A1", "--jmax", "0", "--nmax", "0", "--out", str(tmp_path)]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("error: cannot write to %s: " % tmp_path) and "Traceback" not in err
    assert "wrote" not in out


def test_failed_block_write_leaves_out_as_it_was(tmp_path, capsys):
    # the third block's file name is taken by a directory: the two blocks
    # before it are not left behind, and a file that was there before the
    # run (one of the run's own names, or another) keeps its contents
    argv = ["compute", "--kind", "A1", "--jmax", "1", "--nmax", "1", "--out", str(tmp_path)]
    (tmp_path / "block_1_0.json").mkdir()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write to %s: " % tmp_path) and "block_1_0.json" in err
    assert sorted(os.listdir(tmp_path)) == ["block_1_0.json"]
    (tmp_path / "block_0_0.json").write_text("old")
    (tmp_path / "notes.txt").write_text("kept")
    assert main(argv) == 2
    assert sorted(os.listdir(tmp_path)) == ["block_0_0.json", "block_1_0.json", "notes.txt"]
    assert (tmp_path / "block_0_0.json").read_text() == "old"
    assert (tmp_path / "notes.txt").read_text() == "kept"
    # with the name free, the run writes every block and replaces the old file
    (tmp_path / "block_1_0.json").rmdir()
    assert main(argv) == 0
    assert sorted(os.listdir(tmp_path)) == ["block_0_0.json", "block_1_-1.json", "block_1_0.json",
                                            "block_1_1.json", "notes.txt"]
    assert json.loads((tmp_path / "block_0_0.json").read_text())["kind"] == "A1"


@pytest.mark.parametrize("argv", [["compute", "--jmax", "-1"], ["compute", "--nmax=-1/2"],
                                  ["ktypes", "--nmax", "-2"], ["ktypes", "--jmax", "1/0"]])
def test_negative_window_bound_is_a_config_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "argument %s" % argv[1].split("=")[0] in err


def test_options_a_subcommand_does_not_read_are_rejected(capsys):
    for argv in (["compute", "--trunc-order", "9"], ["verify", "--jmax", "1"],
                 ["ktypes", "--lambda", "1,1"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def test_failed_invariant_is_named_and_exits_1(capsys, monkeypatch):
    def broken(*args):
        raise AssertionError("stub generating-function invariant does not hold")
    monkeypatch.setattr(intertwine, "_genfun_raw_block", broken)
    rc = main(["compute", "--kind", "LONG_GENFUN", "--delta", "0,0", "--lambda", "9/2,5/2",
               "--jmax", "1", "--nmax", "1"])
    assert rc == 1
    assert capsys.readouterr().err == (
        "invariant failed: stub generating-function invariant does not hold\n")


def test_mellin_command():
    assert main(["mellin-check"]) == 0


def test_complex_lambda_float_path(tmp_path):
    # LONG at delta=(1,1) has half-odd t_norm exponents, whose scipy
    # Gammas return numpy scalars: they too must be written as complex
    for kind, delta in (("A1", "0,0"), ("LONG", "1,1")):
        out = str(tmp_path / kind)
        rc = main(["compute", "--kind", kind, "--delta", delta, "--lambda", "2.5+0.25i,1.5+0i",
                   "--jmax", "1", "--nmax", "1", "--out", out])
        assert rc == 0
        for name in sorted(os.listdir(out)):
            text = open(os.path.join(out, name)).read()
            bm, _doc = block_from_json(text)
            assert all(type(e) is complex for row in bm.entries for e in row)
            assert [[repr(e) for e in row] for row in bm.entries] == json.loads(text)["entries"]


def test_float_pole_free_point_is_finite(tmp_path):
    # A4 at z = (lambda2+1)/2 = 1: T = (z-1)/z is 0 there, not a pole
    out = str(tmp_path / "f")
    rc = main(["compute", "--kind", "LONG", "--delta", "0,0", "--lambda", "2+1i,1+0i",
               "--jmax", "1", "--nmax", "1", "--out", out])
    assert rc == 0
    for name in sorted(os.listdir(out)):
        bm, _doc = block_from_json(open(os.path.join(out, name)).read())
        assert all(cmath.isfinite(e) for row in bm.entries for e in row)


def test_float_pole_exit_code(capsys):
    # A4 at z = (lambda2+1)/2 = 0: (z)^(1) = 0 is a pole, as on the exact path
    rc = main(["compute", "--kind", "A4", "--delta", "0,0", "--lambda", "2+1i,-1+0i",
               "--jmax", "1", "--nmax", "1"])
    assert rc == 2
    assert "stage A4" in capsys.readouterr().err


def test_verify_reports_raising_cell(capsys, monkeypatch):
    def boom(z, m):
        raise RuntimeError("quadrature exploded")
    monkeypatch.setattr(intertwine, "mellin_numeric_check", boom)
    # a complex lambda skips the genfun and bracket suites
    rc = main(["verify", "--lambda", "2.5+0.25i,1.5+0i", "--jobs", "1"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "FAIL(mellin-z=1.0-m=0: RuntimeError: quadrature exploded" in out
    m = re.search(r"^(\d+)/(\d+) cells passed", out, re.M)
    assert m and int(m.group(2)) - int(m.group(1)) == len(MELLIN_GRID)


def test_verify_complex_lambda_checks_casimir(capsys):
    rc = main(["verify", "--lambda", "2.5+0.25i,1.5+0i", "--jobs", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    m = re.search(r"^  casimir +(\d+) cells  pass  \(\d+\.\ds\)$", out, re.M)
    assert m and int(m.group(1)) > 0
    assert re.search(r"^  genfun +skipped \(needs rational lambda\)$", out, re.M)
    assert re.search(r"^  bracket +skipped \(needs rational lambda\)$", out, re.M)
    assert re.search(r"^(\d+)/\1 cells passed in \d+\.\ds$", out, re.M)


def test_verify_float_casimir_cell_fails_on_wrong_scalar(capsys, monkeypatch):
    monkeypatch.setattr(sp4, "hc_omega2", lambda lam: 0.5 + 0j)
    rc = main(["verify", "--lambda", "2.5+0.25i,1.5+0i", "--jobs", "1"])
    out = capsys.readouterr().out
    assert rc == 1
    m = re.search(r"^  casimir +(\d+) cells  FAIL\(casimir-j=0-n=", out, re.M)
    summary = re.search(r"^(\d+)/(\d+) cells passed", out, re.M)
    assert m and summary
    assert int(summary.group(2)) - int(summary.group(1)) == int(m.group(1))


def test_verify_mixed_delta_checks_casimir_and_bracket(capsys, monkeypatch):
    # at delta=(0,1) every K-type has half-odd j: the Casimir and bracket
    # cells must be built from those K-types, and genfun does not apply
    suites = dict(_suites(5, False, Character((0, 1), (F(7, 2), F(1, 2)))))
    vectors = suites["bracket"][0][2][2]
    assert vectors and all(gkmod.check_index(v, (0, 1)) for v in vectors)
    assert suites["casimir"] and all(check is gkmod.casimir_check and args[0]
                                     for _name, check, args in suites["casimir"])
    monkeypatch.setattr(sp4, "hc_omega2", lambda lam: F(1, 2))
    rc = main(["verify", "--delta", "0,1", "--lambda", "7/2,1/2", "--jobs", "1"])
    out = capsys.readouterr().out
    assert rc == 1
    assert re.search(r"^  genfun +skipped \(", out, re.M)
    assert re.search(r"^  casimir +%d cells  FAIL\(casimir-j=1/2-n=-5/2," % len(suites["casimir"]),
                     out, re.M)
    assert re.search(r"^  bracket +%d cells  pass " % len(suites["bracket"]), out, re.M)


def test_verify_seed_pins_draws_at_any_jobs(capsys, monkeypatch):
    # each cell seeds its own generator from (SP4_SEED, cell name), so the
    # inputs the cells draw depend on the seed alone, at any --jobs
    def draws():
        drawn = []

        def bracket(x, y):
            drawn.append(("bracket", repr(x.rows), repr(y.rows)))
            raise RuntimeError("recorded")     # the pair is all this test needs

        def iwasawa_sl2(simple, t, real=sp4.iwasawa_sl2):
            if isinstance(t, float):
                drawn.append(("iwasawa", simple, t))
            return real(simple, t)

        with monkeypatch.context() as mp:
            mp.setattr(sp4, "bracket", bracket)
            mp.setattr(sp4, "iwasawa_sl2", iwasawa_sl2)
            mp.setattr(gkmod, "omega2_action", lambda v, chi: {})   # not under test
            mp.setenv("SP4_SEED", "5")
            assert main(["verify", "--jobs", "2"]) == 1
        out = capsys.readouterr().out
        assert "FAIL(bracket-pair-0: RuntimeError: recorded" in out
        return sorted(drawn)

    first, second = draws(), draws()
    assert sum(d[0] == "bracket" for d in first) == 8
    assert sum(d[0] == "iwasawa" for d in first) == 20
    assert first == second


# SHA-256 of the exact export, so that any change to its bytes is seen:
# compute output per kind and format (file names and bytes), and
# action_matrix_json per noncompact root, all at delta=(0,0),
# lambda=(9/2,5/2), j <= 2, |n| <= 2.
EXPORT_DIGESTS = {
    "A1.json": "966a323d85f4f23df543ac03ab0e54de25e94a42a1821033a0a1ca1f765b37e2",
    "A1.csv": "6cdea298f4a49367eb4a46d941ec3529cdc8783a05c1520de80bd299c78b2033",
    "A2.json": "c9622ce1a1040e62b400a2161948e95561a69a908e02a867c7ce02f10d9b33e6",
    "A2.csv": "c10a18edba8aee17a4bb1ea0231c8523d675e130056135d17731ef0fe3242315",
    "A3.json": "fb9fc093f6801a6a8252f70a1613b418aef8262bd68df703a3a90b1232747d37",
    "A3.csv": "4caf0f892e7fc0f7454eba5962886b6f1859f12258d343f72b38a15c8b327e33",
    "A4.json": "caeaeb3910e51d1342d40819209be0dfc3765049e25950c5d9d72080b1efe51c",
    "A4.csv": "edb3de21d57f8d4829c09d6c3afcb434df6bc481cef6435140471ee1b8eaeb22",
    "LONG.json": "659087cd40d4e4498c3fe7f58414aa50bcc9f62db477c8ce09d6119d5aae4e5b",
    "LONG.csv": "53afd55bd879950a1320a72e72f41de429675f4277afa1c61b65aeeb7ea24fee",
    "LONG_GENFUN.json": "02bf9cb9846db2f846c12bbe2052f8977f534f2e4f5ee354bc5a557be8f3a5cb",
    "LONG_GENFUN.csv": "53afd55bd879950a1320a72e72f41de429675f4277afa1c61b65aeeb7ea24fee",
    "action.2b1+b2": "93c7e1d92527fb08093f191971c4eec3004bfe88a522c9001f16d2e1a3244695",
    "action.b1+b2": "6fb7e3f5d441eab32bd5e39c452925912fba73d915e29be06918525a98006f43",
    "action.b2": "9c0131ceb1e9f6c9655ac936efc46992c9b03a192fc63073396bed80dab6efb7",
    "action.-b2": "f566a5a2aa2c673f14f66fa8b96ff2a984e6a5264586e080805dc806b75971c9",
    "action.-b1-b2": "1fe6fb7fe4451b8c54b3f57cd5f8ae4c1aa9ad74c19077d8cfba649b465cef9c",
    "action.-2b1-b2": "6f32fdf5878d882cd636939c8b59450effc5a74165df7ac2ae88969e46a7db6c",
}


def _dir_digest(path):
    h = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as fh:
            h.update(name.encode() + b"\0" + fh.read() + b"\0")
    return h.hexdigest()


def test_exact_export_bytes_pinned(tmp_path):
    got = {}
    for kind in KINDS:
        for fmt in ("json", "csv"):
            out = str(tmp_path / (kind + fmt))
            assert main(["compute", "--kind", kind, "--delta", "0,0", "--lambda", "9/2,5/2",
                         "--jmax", "2", "--nmax", "2", "--out", out, "--format", fmt]) == 0
            got["%s.%s" % (kind, fmt)] = _dir_digest(out)
    for root in NONCOMPACT:
        rows = action_matrix_json(root, (0, 0), (F(9, 2), F(5, 2)), 2, 2)
        got["action." + root] = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert got == EXPORT_DIGESTS


# SHA-256 of the float-path export: compute --format csv output per kind at
# delta=(0,1), lambda=(3.3+0.4i,0.7-0.2i), j <= 2, |n| <= 2, so that any
# change to the bits of a complex entry is seen.
FLOAT_EXPORT_DIGESTS = {
    "A1.csv": "1e02606e1e1877a362f16ec4bc0f92ebea4df3569083e226499653224a889016",
    "A2.csv": "18ab09facedb90c275afa83cfb0ffe39e523459a7b700b4f5d1b3e61ae069241",
    "A3.csv": "125f98db8a9e24b26b2202c9dda873ec736657aa4f1c9e05c62ed9d5909900ba",
    "A4.csv": "55c4ea215954190e057af5ef8a5dacae53e70bc70d83933f3381c487365b5420",
    "LONG.csv": "2500c565bfd9397a8960e61b3f1dc59e9df9d71eff7ce82ebf3ebeccce62d657",
}


def test_float_export_bytes_pinned(tmp_path):
    got = {}
    for kind in ("A1", "A2", "A3", "A4", "LONG"):
        out = str(tmp_path / kind)
        assert main(["compute", "--kind", kind, "--delta", "0,1", "--lambda", "3.3+0.4i,0.7-0.2i",
                     "--jmax", "2", "--nmax", "2", "--out", out, "--format", "csv"]) == 0
        assert len(os.listdir(out)) == 8
        got[kind + ".csv"] = _dir_digest(out)
    assert got == FLOAT_EXPORT_DIGESTS


# SHA-256 of the float-path export at a real-valued complex lambda,
# (4.5+0i,2.5+0i), j <= 2, |n| <= 2: many entries have a zero real or
# imaginary part there, so a change to the sign of a zero part is seen.
REAL_FLOAT_EXPORT_DIGESTS = {
    "0,0/A1.csv": "3ed84a29be649eaa2ebb1d5d0a583ac68b6903a9da280c94988221358ccec383",
    "0,0/A2.csv": "90dba85a1f380113eed3669def551284b2ccf49c9551f3f4f5927b59a375f282",
    "0,0/A3.csv": "ca045028e164044d3b2057ea80b55d8f6e2677101fa0f37074e212659947d872",
    "0,0/A4.csv": "2f5fd6919948ae7213c4b3633e6be76fd7f6a8f9ad261b04a04a872baf72b299",
    "0,0/LONG.csv": "45b5eadf7a2c67f6b0dec0076d1348ecca0915d31201a5fdf19093279ef2be1e",
    "1,1/A1.csv": "6f6a90d4287233a777dc4edfaa5edb8a3ea91d71f58ceb33b6d7685c91909180",
    "1,1/A2.csv": "ac1bb1d63a5361a88d52721e853149532098d4edae0bf078b27f2b60182003c0",
    "1,1/A3.csv": "033faeea848c2ec321d45a8f7764e7a0dd85c34fe9ca0b0db124fe5d9515ed1a",
    "1,1/A4.csv": "7b6125e922e768c1b17008de593140d9334c3f700f7b9d23947c7d95f14c5a13",
    "1,1/LONG.csv": "2b23dee30b6ad92b451c7d0065ddef8aac578cd32ceda704082f0aae368d3152",
}


def test_float_export_bytes_pinned_at_real_lambda(tmp_path):
    got = {}
    for delta in ("0,0", "1,1"):
        for kind in ("A1", "A2", "A3", "A4", "LONG"):
            out = str(tmp_path / (delta + kind))
            assert main(["compute", "--kind", kind, "--delta", delta, "--lambda", "4.5+0i,2.5+0i",
                         "--jmax", "2", "--nmax", "2", "--out", out, "--format", "csv"]) == 0
            got["%s/%s.csv" % (delta, kind)] = _dir_digest(out)
    assert got == REAL_FLOAT_EXPORT_DIGESTS


# Runs main in a fresh interpreter: neither numpy nor multiprocessing may be
# imported yet, and the BLAS thread variables main sets are printed after it
# returns.
_BLAS_PROBE = """
import os, sys
from sp4ps.cli import BLAS_THREAD_VARS, main
assert "numpy" not in sys.modules and "multiprocessing" not in sys.modules
assert main(["ktypes", "--jmax", "1", "--nmax", "1"]) == 0
print(" ".join(os.environ.get(v, "unset") for v in BLAS_THREAD_VARS))
"""


@pytest.mark.parametrize("preset, want", [(None, "1 1 1"), ("3", "3 3 3")], ids=["unset", "preset"])
def test_main_pins_blas_threads_unless_set(preset, want):
    import sp4ps
    from sp4ps.cli import BLAS_THREAD_VARS
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(sp4ps.__file__))
    if preset is not None:
        env.update({v: preset for v in BLAS_THREAD_VARS})
    done = subprocess.run([sys.executable, "-c", _BLAS_PROBE], env=env, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == want
