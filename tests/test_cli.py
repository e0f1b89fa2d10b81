import contextlib
import csv
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import f1kit
from f1kit import cli
from f1kit.cli import EXIT_INTERNAL, EXIT_OK, EXIT_RANGE, EXIT_USAGE, emit, run
from f1kit.genseries import solve_tdn_ode
from f1kit.motive import format_poly


def invoke(*argv):
    buf = io.BytesIO()
    code = run(list(argv), stdout=buf)
    return code, buf.getvalue()


class TestCommands:
    def test_classes_mbar0_l_basis(self):
        code, out = invoke("classes", "--space", "mbar0", "--n", "6", "--basis", "L")
        assert code == EXIT_OK
        assert out == b"L^3+16L^2+16L+1\n"

    def test_classes_tdn(self):
        code, out = invoke("classes", "--space", "tdn", "--d", "1", "--n", "4")
        assert code == EXIT_OK
        assert out == b"T^2+7T+7\n"

    def test_classes_json_is_motclass_schema(self):
        code, out = invoke("classes", "--space", "mbar0", "--n", "4", "--format", "json")
        assert code == EXIT_OK
        assert json.loads(out) == {"basis": "T", "coeffs": ["2", "1"]}

    def test_points_euler(self):
        code, out = invoke("points", "--space", "mbar0", "--n", "5", "--m", "0")
        assert code == EXIT_OK
        assert out == b"7\n"

    def test_series_csv_rows(self):
        code, out = invoke("series", "--d", "1", "--order", "5", "--format", "csv")
        assert code == EXIT_OK
        lines = out.decode().splitlines()
        assert lines[0] == "n,class"
        assert len(lines) == 6
        assert lines[1] == "1,1"
        assert lines[4] == "4,T^2+7T+7"

    def test_strata_emits_verified_sum(self):
        code, out = invoke("strata", "--d", "1", "--n", "4")
        assert code == EXIT_OK
        text = out.decode()
        assert text.count("\n") == 27  # 26 rows plus the summary line
        assert "sum = T^2+7T+7 (verified against the recursion)" in text

    def test_blueprint_n5_has_five_relations(self):
        code, out = invoke("blueprint", "--n", "5")
        assert code == EXIT_OK
        lines = out.decode().splitlines()
        assert len(lines) == 5
        assert lines[0] == "x{1,2}*x{1,2,5} + x{1,4}*x{1,4,5} == x{1,3}*x{1,3,5}"

    def test_blueprint_n4(self):
        code, out = invoke("blueprint", "--n", "4")
        assert out == b"x{1,2} + x{1,4} == x{1,3}\n"

    def test_torify(self):
        code, out = invoke("torify", "--d", "1")
        assert code == EXIT_OK
        assert out.decode().splitlines()[-1] == "class = T+2"

    def test_torify_stratum(self):
        code, out = invoke("torify", "--d", "1", "--n", "4", "--format", "json")
        doc = json.loads(out)
        assert doc["class"] == {"basis": "T", "coeffs": ["2", "-3", "1"]}

    def test_crossed_counts(self):
        code, out = invoke("crossed", "--g", "2", "--n", "6")
        assert code == EXIT_OK
        head = out.decode().splitlines()[0]
        assert head == "group order 8, relations 15, crossed pairs 120"


class TestErrors:
    def test_range_error(self):
        code, _ = invoke("classes", "--space", "mbar0", "--n", "1")
        assert code == EXIT_RANGE

    def test_crossed_needs_enough_markings(self):
        code, _ = invoke("crossed", "--g", "2", "--n", "4")
        assert code == EXIT_RANGE

    def test_usage_error(self):
        code, _ = invoke("nonsense")
        assert code == EXIT_USAGE

    def test_missing_required(self):
        code, _ = invoke("classes", "--n", "4")
        assert code == EXIT_USAGE


class TestErrorMessages:
    """The first failing check names the error, so its order is pinned too."""

    @pytest.mark.parametrize(
        "argv,message",
        [
            ("points --space mbar0 --n 1 --m -1", "n must be an int >= 2"),
            ("points --space tdn --d 0 --n 0 --m -1", "d must be a positive int"),
            ("points --space tdn --d 1 --n 0 --m -1", "n must be a positive int"),
            ("points --space mbar0 --n 5 --m -2", "m must be a nonnegative int"),
            ("points --space tdn --d 2 --n 4 --m -2", "m must be a nonnegative int"),
            ("series --d 0 --order 0", "d must be a positive int"),
            ("series --order 0", "order must be >= 1"),
            ("torify --d -1", "d must be a nonnegative int"),
        ],
    )
    def test_stderr_and_exit(self, argv, message):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code, out = invoke(*argv.split())
        assert (code, out, err.getvalue()) == (EXIT_RANGE, b"", "error: %s\n" % message)


class TestEmit:
    def test_motclass_doc(self):
        doc = {"basis": "T", "coeffs": ["2", "1"]}
        got = emit(doc, "json")
        assert json.loads(got) == {"basis": "T", "coeffs": ["2", "1"]}

    def test_empty_table_csv_is_header_only(self):
        doc = (["n", "class"], [])
        assert emit(doc, "csv") == b"n,class\n"

    def test_lf_line_endings(self):
        doc = (["a"], [["1"], ["2"]])
        assert emit(doc, "csv") == b"a\n1\n2\n"

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            emit("x", "yaml")


_STRINGS = st.text() | st.sampled_from(['"', "\\", '\\"', "\x00\x1f\n\t\x7f", "\u00e9\u20ac\U0001f600", "\ud800"])
_INTS = st.integers() | st.integers(-(2**80), 2**80) | st.sampled_from([2**64, 2**64 + 1, -(2**64) - 1])
_JSON_LEAVES = _STRINGS | _INTS | st.booleans() | st.none()
_JSON_DOCS = st.recursive(
    _JSON_LEAVES | st.lists(_INTS) | st.lists(_STRINGS),
    lambda kids: st.lists(kids) | st.lists(kids).map(tuple) | st.dictionaries(_STRINGS, kids),
    max_leaves=40,
)


def _oracle(doc):
    return (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode()


def _lazy(doc, rng):
    """doc with some of its lists and tuples replaced by iterators over them."""
    if isinstance(doc, dict):
        return {k: _lazy(v, rng) for k, v in doc.items()}
    if isinstance(doc, (list, tuple)):
        items = [_lazy(x, rng) for x in doc]
        return iter(items) if rng.random() < 0.5 else type(doc)(items)
    return doc


class TestJsonWriter:
    """emit's JSON writer against its oracle, ``json.dumps(sort_keys=True, indent=2)``."""

    @settings(max_examples=200, deadline=None)
    @given(_JSON_DOCS, st.randoms(use_true_random=False))
    def test_matches_json_dumps(self, doc, rng):
        expected = _oracle(doc)
        assert emit(doc, "json") == expected
        assert emit(_lazy(doc, rng), "json") == expected

    def test_empty_containers(self):
        assert emit(iter([]), "json") == b"[]\n"
        assert emit({"a": iter([]), "b": (), "c": {}}, "json") == _oracle({"a": [], "b": [], "c": {}})
        assert emit([iter([]), iter([{}])], "json") == _oracle([[], [{}]])

    @pytest.mark.parametrize("bad", [1.5, float("nan"), b"x", {1, 2}, object(), 1j])
    def test_other_types_raise_type_error(self, bad):
        for doc in (bad, [bad], [1, bad], {"a": {"b": bad}}, {"rows": iter([0, bad])}):
            with pytest.raises(TypeError):
                emit(doc, "json")


_LAZY_ROWS = [("strata --d 1 --n 4", "strata"), ("blueprint --n 5", "relations"), ("crossed --g 2 --n 5", "pairs")]


def _failing_rows(builder, key, exc):
    """builder whose lazy rows under key raise exc after the first row."""

    def build(args, fmt):
        doc = builder(args, fmt)
        rows = doc[key]

        def rows_then_fail():
            yield next(rows)
            raise exc

        return dict(doc, **{key: rows_then_fail()})

    return build


class TestLazyRowErrors:
    """A builder's rows are made while emit renders; a failure there still prints nothing."""

    @pytest.mark.parametrize("argv,key", _LAZY_ROWS)
    @pytest.mark.parametrize(
        "exc,code,prefix",
        [(ValueError("bad row"), EXIT_RANGE, "error: bad row"), (RuntimeError("lost row"), EXIT_INTERNAL, "internal error: lost row")],
    )
    def test_exit_code_and_empty_stdout(self, monkeypatch, argv, key, exc, code, prefix):
        command = argv.split()[0]
        monkeypatch.setitem(cli._BUILDERS, command, _failing_rows(cli._BUILDERS[command], key, exc))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            got = invoke(*argv.split(), "--format", "json")
        assert got == (code, b"")
        assert err.getvalue() == prefix + "\n"


class TestJsonMemory:
    """A JSON run's traced peak stays within 4x its output, after one warm-up run fills the memos."""

    @pytest.mark.parametrize(
        "argv",
        ["strata --d 1 --n 6 --format json", "blueprint --n 9 --format json", "crossed --g 2 --n 7 --format json"],
    )
    def test_peak_is_bounded_by_output(self, argv):
        argv = argv.split()
        assert invoke(*argv)[0] == EXIT_OK
        out = io.BytesIO()
        tracemalloc.start()
        try:
            code = run(argv, stdout=out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_OK
        assert peak <= 4 * len(out.getvalue()), (peak, len(out.getvalue()))


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ["classes", "--space", "mbar0", "--n", "6", "--basis", "L"],
            ["series", "--d", "2", "--order", "6", "--format", "json"],
            ["strata", "--d", "1", "--n", "4", "--format", "csv"],
            ["blueprint", "--n", "5", "--format", "json"],
        ],
    )
    def test_repeat_invocations_identical(self, argv):
        assert invoke(*argv) == invoke(*argv)

    def test_subprocess_round(self):
        cmd = [sys.executable, "-m", "f1kit", "classes", "--space", "mbar0", "--n", "5"]
        env = {k: v for k, v in os.environ.items() if k != "F1KIT_CACHE_DIR"}
        a = subprocess.run(cmd, capture_output=True, env=env)
        b = subprocess.run(cmd, capture_output=True, env=env)
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout == b"T^2+7T+7\n"


class TestGolden:
    """Fixed commands whose stdout must not change by a byte (sha256 pinned)."""

    @pytest.mark.parametrize(
        "argv,digest",
        [
            ("strata --d 1 --n 5 --format text", "bfb0976868f47b4645a396cef686c583c58503ff4a42ad1e60e476739288fbb4"),
            ("strata --d 1 --n 5 --format json", "8ac490c7130516c7c450d7c9cf59f419100af1848be79b372e5ad4f73bfd7bac"),
            ("strata --d 1 --n 5 --format csv", "09ac4fe049955694ade7282ff5a937d48708c4486cf9a3db3f93a8af6419b4a5"),
            ("strata --d 2 --n 5 --format text", "513d08fd7322d708f00f0291338e514c04e316c5b092dcf394528461a61c6f22"),
            ("strata --d 2 --n 5 --format json", "cd4d1b50fe2898d448b7b1ee13f8dbc8a164d94b625295f2e2d6c598084f4425"),
            ("strata --d 2 --n 5 --format csv", "4f427ab428a54da42d04f21b4e0cac400ce04e7e7c962f81775033129b5619ca"),
            ("torify --d 2 --n 8", "1aacb696eb93f625257bad4f67c22b85d20da00b21764def9d6dbb48a973577c"),
            ("blueprint --n 6 --format json", "d8e944363a413b1b0e70b9482efaf480cb2273ad24f92046abb2b6231f647e13"),
            ("crossed --g 2 --n 6 --format json", "360f73f05e4d8379e03e2766a3c4f1450abf8e7a8f4e68e0f26baa96f0c66f40"),
            ("classes --space mbar0 --n 8 --basis L", "0ab0f440613b0b55128d617e9fe9df3e40f53e5cef970cfc460ffd98e9d4739c"),
            ("classes --space tdn --d 2 --n 6 --format json", "5179ee22879c0087992916327ba36ccd961688e38697cd583e822c28ecb5b424"),
            ("classes --space tdn --d 2 --n 6 --format csv", "e3a827210aca5d43318802bab20df00fe403dacff35f656b3a4e6c47941ab505"),
            ("points --space mbar0 --n 9 --m 3 --format text", "ebe1907eee556d9738b8ab46ad8836864620a1f6249d11e608dd2c71fad572d4"),
            ("points --space mbar0 --n 9 --m 3 --format json", "362ecfe50c33522e67beea4495c7ec9df6dea8a86da0c4ebb6c7bb8e6887dde9"),
            ("points --space mbar0 --n 9 --m 3 --format csv", "414007b05a49012f8d33ec5b79a55277536d1367a9ca509c60216eea6c6adcd3"),
            ("points --space tdn --d 3 --n 7 --m 2 --format text", "fb30c5de9dd7205e4c457e9e17414253c039e0345950ad5549b81cfde68a0a50"),
            ("points --space tdn --d 3 --n 7 --m 2 --format json", "1fa4123fbc7d7669af3ee541cf7844a3f99279ca1bec8b59527b10af0c13812e"),
            ("points --space tdn --d 3 --n 7 --m 2 --format csv", "65a3811435878c0ba1a97278a2f2e6885704dd1c1a26405ce5adf571ace64ff2"),
            ("series --d 2 --order 8 --basis L --format text", "cf74a30e2a4c70242af4e81afbb36d535dfb3a7c65a78d04e8691e299848db38"),
            ("series --d 2 --order 8 --basis L --format json", "b2376fd7341e83a17586f4e156349eda6506b6c8ef91c75f3f8bdd3066fc677e"),
            ("series --d 2 --order 8 --basis L --format csv", "91f4b47b091763cd3384acc92b5729f87337deac372cbf0b0eed423703b0cde4"),
            ("torify --d 3 --format json", "00d34cb11706d49bb9229d82396775421e04aa856e921cf52c6f85be4e6854e5"),
            ("torify --d 3 --format csv", "d90b6cbeedd4799c93e72238e61374411ca61087b7a79b6702258bac2a33561a"),
            ("torify --d 2 --n 6 --format json", "8d1ce115e1c03eedd5b2ca9897e9de4dd525b626d9a530eabf11100464478d3a"),
            ("torify --d 2 --n 6 --format csv", "cf9c75e085e3faa134f6316e3cfe6c61d144d3d9695029279513d624603b0de0"),
            ("blueprint --n 6 --format text", "3c1ffdfa366637ed344dae08f00af06bd5f9b5883a1e4646563c519abe399555"),
            ("blueprint --n 6 --format csv", "45e77cda9a2f070966567e841be4db54e82cdeb01c301c2b582b411ffb0f2a65"),
            ("crossed --g 2 --n 6 --format text", "51d335b684f3e20247ad86ab7bea2d0989e52435c61edb3d356dfd280d1f61b4"),
            ("crossed --g 2 --n 6 --format csv", "5bb3fa60d3cbf9d3ffeb89dbc20413a772edd03b2322e95a9bf672c8e1571803"),
        ],
    )
    def test_stdout_digest(self, argv, digest):
        code, out = invoke(*argv.split())
        assert code == EXIT_OK
        assert hashlib.sha256(out).hexdigest() == digest


class TestSeriesOracle:
    """series prints the kernel's classes; the oracle document is built from solve_tdn_ode."""

    @staticmethod
    def expected(series, fmt, basis):
        polys = [format_poly(c.in_basis(basis), basis) for c in series.coeffs]
        if fmt == "json":
            doc = {"order": series.order, "coeffs": [c.to_json(basis) for c in series.coeffs]}
            return (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode()
        if fmt == "csv":
            return ("n,class\n" + "".join("%d,%s\n" % row for row in enumerate(polys, start=1))).encode()
        return "".join("b[%d] = %s\n" % row for row in enumerate(polys, start=1)).encode()

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_every_format_and_basis(self, d):
        full = solve_tdn_ode(d, 20)
        for order in range(1, 21):
            series = f1kit.EGFSeries(full.coeffs[:order])
            for fmt in ("text", "json", "csv"):
                for basis in ("T", "L"):
                    argv = ["series", "--d", str(d), "--order", str(order), "--basis", basis, "--format", fmt]
                    assert invoke(*argv) == (EXIT_OK, self.expected(series, fmt, basis)), argv


def _coeffs(poly):
    """Ascending coefficients of a format_poly string."""
    out = {}
    for term in re.findall(r"[+-]?[^+-]+", poly):
        sign, digits, var, power = re.fullmatch(r"([+-]?)(\d*)([TL]?)(?:\^(\d+))?", term).groups()
        mag = int(digits) if digits else 1
        out[int(power or 1) if var else 0] = -mag if sign == "-" else mag
    return _trim([out.get(k, 0) for k in range(max(out) + 1)])


def _trim(coeffs):
    coeffs = [int(c) for c in coeffs]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _csv_rows(out):
    return list(csv.reader(io.StringIO(out.decode())))[1:]


def _values(command, fmt, out):
    """The values one output shows, in a form common to the three formats."""
    if fmt == "json":
        doc = json.loads(out)
        if command == "classes":
            return _trim(doc["coeffs"])
        if command == "points":
            return int(doc["count"])
        if command == "series":
            return [_trim(c["coeffs"]) for c in doc["coeffs"]]
        rows = [(s["index"], s["tree"], _coeffs(s["class"])) for s in doc["strata"]]
        assert doc["count"] == len(rows) and doc["verified"] is True
        return rows, _trim(doc["sum"]["coeffs"])
    if fmt == "csv":
        rows = _csv_rows(out)
        if command == "classes":
            return _coeffs(rows[0][1])
        if command == "points":
            return int(rows[0][2])
        if command == "series":
            return [_coeffs(cls) for _, cls in rows]
        table = [(int(i), json.loads(tree), _coeffs(cls)) for i, tree, cls in rows[:-1]]
        assert rows[-1][:2] == ["sum", ""]
        return table, _coeffs(rows[-1][2])
    lines = out.decode().splitlines()
    if command == "classes":
        return _coeffs(lines[0])
    if command == "points":
        return int(lines[0])
    if command == "series":
        return [_coeffs(line.split(" = ")[1]) for line in lines]
    table = [(int(i), json.loads(tree), _coeffs(cls)) for i, tree, cls in (line.split("  ") for line in lines[:-1])]
    total = re.fullmatch(r"sum = (\S+) \(verified against the recursion\)", lines[-1]).group(1)
    return table, _coeffs(total)


class TestFormatAgreement:
    """Text, CSV and JSON of one argv parse back to the same values."""

    @pytest.mark.parametrize(
        "argv",
        [
            "classes --space mbar0 --n 9 --basis L",
            "classes --space tdn --d 3 --n 8",
            "points --space mbar0 --n 12 --m 3",
            "points --space tdn --d 2 --n 9 --m 0",
            "series --d 2 --order 9 --basis L",
            "series --d 1 --order 12",
            "strata --d 1 --n 5 --basis L",
            "strata --d 2 --n 4",
        ],
    )
    def test_formats_agree(self, argv):
        argv = argv.split()
        shown = []
        for fmt in ("text", "csv", "json"):
            code, out = invoke(*argv, "--format", fmt)
            assert code == EXIT_OK
            shown.append(_values(argv[0], fmt, out))
        assert shown[0] == shown[1] == shown[2]


class TestNoFiles:
    def test_cache_dir_is_ignored_and_nothing_written(self, tmp_path):
        plain_file = tmp_path / "plain-file"
        plain_file.write_text("")
        before = sorted(p.name for p in tmp_path.iterdir())
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(f1kit.__file__).resolve().parents[1])
        env["F1KIT_CACHE_DIR"] = str(plain_file)
        cmd = [sys.executable, "-m", "f1kit", "classes", "--space", "mbar0", "--n", "6"]
        proc = subprocess.run(cmd, capture_output=True, env=env, cwd=tmp_path)
        assert proc.returncode == EXIT_OK
        assert proc.stdout == b"T^3+19T^2+51T+34\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == before
        assert plain_file.read_text() == ""


_FORMAT = st.sampled_from(["text", "json", "csv"])
_SPACE = st.sampled_from(["mbar0", "tdn"])
_BASIS = st.sampled_from(["T", "L"])


def _ints(lo, hi):
    return st.integers(lo, hi).map(str)


# flag -> values per command, bounded so that no accepted request runs long
_FLAGS = {
    "classes": {
        "--space": _SPACE,
        "--n": _ints(-3, 30),
        "--d": _ints(-2, 4),
        "--basis": _BASIS,
        "--format": _FORMAT,
    },
    "points": {
        "--space": _SPACE,
        "--n": _ints(-3, 20),
        "--d": _ints(-2, 4),
        "--m": _ints(-3, 9),
        "--format": _FORMAT,
    },
    "series": {
        "--d": _ints(-2, 4),
        "--order": _ints(-3, 15),
        "--basis": _BASIS,
        "--format": _FORMAT,
    },
    "strata": {"--d": _ints(-2, 3), "--n": _ints(-3, 5), "--basis": _BASIS, "--format": _FORMAT},
    "torify": {"--d": _ints(-2, 4), "--n": _ints(-3, 6), "--format": _FORMAT},
    "blueprint": {"--n": _ints(-3, 7), "--format": _FORMAT},
    "crossed": {"--g": _ints(-2, 3), "--n": _ints(-3, 7), "--format": _FORMAT},
}


@st.composite
def _argvs(draw):
    command = draw(st.sampled_from(sorted(_FLAGS)))
    argv = [command]
    for flag, values in _FLAGS[command].items():
        if draw(st.integers(0, 7)):  # a dropped required flag is a usage error
            argv += [flag, draw(values)]
    return argv


class TestExitCodeFuzz:
    @settings(max_examples=200, deadline=None)
    @given(_argvs())
    def test_exit_code_is_ok_usage_or_range(self, argv):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = run(argv, stdout=io.BytesIO())
        assert code in (EXIT_OK, EXIT_USAGE, EXIT_RANGE), (argv, err.getvalue())
        assert "Traceback" not in err.getvalue()
