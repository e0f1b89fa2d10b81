import io
import json
import os
import subprocess
import sys

import pytest

from f1kit.cli import EXIT_INTERNAL, EXIT_OK, EXIT_RANGE, EXIT_USAGE, emit, run


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


class TestEmit:
    def test_motclass_doc(self):
        doc = {"json": {"basis": "T", "coeffs": ["2", "1"]}}
        got = emit(doc, "json")
        assert json.loads(got) == {"basis": "T", "coeffs": ["2", "1"]}

    def test_empty_table_csv_is_header_only(self):
        doc = {"header": ["n", "class"], "rows": []}
        assert emit(doc, "csv") == b"n,class\n"

    def test_lf_line_endings(self):
        doc = {"header": ["a"], "rows": [["1"], ["2"]]}
        assert emit(doc, "csv") == b"a\n1\n2\n"

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            emit({"text": "x"}, "yaml")


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


class TestCacheDir:
    def test_cache_written_and_reused(self, tmp_path):
        env = dict(os.environ)
        env["F1KIT_CACHE_DIR"] = str(tmp_path)
        cmd = [sys.executable, "-m", "f1kit", "classes", "--space", "mbar0", "--n", "6"]
        first = subprocess.run(cmd, capture_output=True, env=env)
        assert first.returncode == 0
        cache_file = tmp_path / "f1kit_cache.json"
        assert cache_file.is_file()
        doc = json.loads(cache_file.read_text())
        assert doc["mbar0"]["6"] == {"basis": "T", "coeffs": ["34", "51", "19", "1"]}
        second = subprocess.run(cmd, capture_output=True, env=env)
        assert second.stdout == first.stdout

    @pytest.mark.parametrize(
        "content", ['{"mbar0": {"5": {"basis": "T", "coe', '["not", "a", "table"]']
    )
    def test_damaged_cache_file_is_not_a_range_error(self, tmp_path, content):
        cache_file = tmp_path / "f1kit_cache.json"
        cache_file.write_text(content)
        env = dict(os.environ)
        env["F1KIT_CACHE_DIR"] = str(tmp_path)
        cmd = [sys.executable, "-m", "f1kit", "classes", "--space", "mbar0", "--n", "6"]
        proc = subprocess.run(cmd, capture_output=True, env=env)
        assert proc.returncode == EXIT_INTERNAL
        assert proc.stdout == b""
        assert str(cache_file).encode() in proc.stderr
        assert b"Traceback" not in proc.stderr

    def test_unsavable_cache_keeps_the_answer(self, tmp_path):
        not_a_dir = tmp_path / "plain-file"
        not_a_dir.write_text("")
        env = dict(os.environ)
        env["F1KIT_CACHE_DIR"] = str(not_a_dir)
        cmd = [sys.executable, "-m", "f1kit", "classes", "--space", "mbar0", "--n", "6"]
        proc = subprocess.run(cmd, capture_output=True, env=env)
        assert proc.returncode == EXIT_INTERNAL
        assert proc.stdout == b"T^3+19T^2+51T+34\n"
        assert b"cache error: cannot save " + str(not_a_dir / "f1kit_cache.json").encode() in proc.stderr
        assert b"Traceback" not in proc.stderr

    def test_edited_cache_entry_is_refused(self, tmp_path):
        env = dict(os.environ)
        env["F1KIT_CACHE_DIR"] = str(tmp_path)
        cmd = [sys.executable, "-m", "f1kit", "classes", "--space", "mbar0", "--n", "6"]
        assert subprocess.run(cmd, capture_output=True, env=env).returncode == EXIT_OK
        cache_file = tmp_path / "f1kit_cache.json"
        text = cache_file.read_text()
        assert text.count('"34"') == 1
        cache_file.write_text(text.replace('"34"', '"35"'))
        proc = subprocess.run(cmd, capture_output=True, env=env)
        assert proc.returncode == EXIT_INTERNAL
        assert proc.stdout == b""
        assert b"cache error: cannot load " + str(cache_file).encode() in proc.stderr
        assert b"mbar0 6" in proc.stderr
        assert b"Traceback" not in proc.stderr
