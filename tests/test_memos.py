"""Memos only where a request reuses them across calls.

A request runs in a fresh process, so a process-wide memo pays only if one
request reads it many times.  One does: blueprint._TABLES (capped at
n <= 12).  Every other table lives for one call, as strata_table's classes
of its in-degree profiles do, and a tree carries its own canonical string.
README names the kept memo.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import f1kit

_README = Path(__file__).resolve().parent.parent / "README.md"

KEPT = {"blueprint.py:_TABLES"}

_SOURCES = {path.name: path.read_text() for path in Path(f1kit.__file__).parent.glob("*.py")}


def test_only_the_kept_memos_remain():
    """Every lru_cache'd function and module-level dict table in src is one of the kept."""
    cached = re.compile(r"^@(?:functools\.)?(?:lru_cache|cache)\b.*\n(?:@.*\n)*def (\w+)", re.M)
    table = re.compile(r"^(\w+)\s*=\s*(?:\{\}|dict\(\))", re.M)
    found = {
        "%s:%s" % (name, m.group(1))
        for name, text in _SOURCES.items()
        for pattern in (cached, table)
        for m in pattern.finditer(text)
    }
    assert found == KEPT


def test_readme_names_exactly_the_kept_memos():
    paragraph = re.search(r"^f1kit keeps no state between calls.*?(?:\n\n|\Z)", _README.read_text(), re.M | re.S)
    assert paragraph, "README lost its memo paragraph"
    named = {"%s.py:%s" % m for m in re.findall(r"`(\w+)\.(\w+)`", paragraph.group())}
    assert named == KEPT
    count = ["no", "one", "two", "three", "four"][len(KEPT)]
    assert re.search(r"\bbeyond %s memos?\b" % count, paragraph.group())


_LEFT_BEHIND = """
import gc, sys
import f1kit

def tracked():
    gc.collect()
    return len(gc.get_objects())

before = tracked()
eval(sys.argv[1], vars(f1kit))
print(tracked() - before)
"""


@pytest.mark.parametrize("request_", ["strata_table(1, 6)", "mbar0_class(80)"])
def test_a_request_leaves_no_objects_behind(request_):
    # in a fresh process, as each request runs; the result itself is dropped
    env = dict(os.environ, PYTHONPATH=str(Path(f1kit.__file__).parent.parent))
    out = subprocess.run([sys.executable, "-c", _LEFT_BEHIND, request_], capture_output=True, env=env, check=True)
    assert int(out.stdout) < 100


_COMPOSES = """
import gc, random
from f1kit import compose, enumerate_stable_trees

def tracked():
    gc.collect()
    return len(gc.get_objects())

rng = random.Random(0)
hosts, guests = enumerate_stable_trees(3), enumerate_stable_trees(4)
before = tracked()
for _ in range(10000):
    host = rng.choice(hosts)
    compose(host, [rng.choice(guests) for _ in range(host.input_count())]).canonical_str()
print(tracked() - before)
"""


def test_many_composes_leave_no_objects_behind():
    # in a fresh process; 10,000 composes make thousands of distinct strings, which a process-wide memo would keep
    env = dict(os.environ, PYTHONPATH=str(Path(f1kit.__file__).parent.parent))
    out = subprocess.run([sys.executable, "-c", _COMPOSES], capture_output=True, env=env, check=True, text=True)
    assert int(out.stdout) < 100


_NEW_DS = """
import gc
from f1kit import strata_table

def tracked(ds):
    for d in ds:
        [s.stratum_class() for s in strata_table(d, 5)]
    gc.collect()
    return len(gc.get_objects())

print(tracked(range(1, 21)), tracked(range(21, 41)))
"""


def test_strata_classes_stay_bounded_over_many_d():
    # in a fresh process; a process-wide memo of profile classes grew by 5 objects per new d
    env = dict(os.environ, PYTHONPATH=str(Path(f1kit.__file__).parent.parent))
    out = subprocess.run([sys.executable, "-c", _NEW_DS], capture_output=True, env=env, check=True, text=True)
    first, second = map(int, out.stdout.split())
    assert second <= first
