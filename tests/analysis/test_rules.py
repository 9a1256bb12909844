"""Golden-fixture tests for every reprolint rule.

Each rule has a positive fixture (the historical bug shape it exists to
catch, marked with ``EXPECT`` comments) and a negative fixture (the
repo's sanctioned idioms, which must stay quiet). The tests pin both the
rule ids and the flagged lines, so a rule that drifts — stops firing, or
starts over-firing — fails here before it rots the CI gate.
"""

from pathlib import Path

import pytest

from repro.analysis import run_analysis

FIXTURES = Path(__file__).parent / "fixtures"


def scan(*names):
    return run_analysis([FIXTURES / name for name in names], root=FIXTURES)


def expected_lines(path):
    """Line numbers carrying an ``EXPECT`` marker in a fixture."""
    lines = (FIXTURES / path).read_text().splitlines()
    return sorted(
        index for index, text in enumerate(lines, start=1) if "EXPECT" in text
    )


POSITIVE_FIXTURES = [
    ("lock_pos.py", "lock-discipline"),
    ("cache_pos.py", "bounded-cache"),
    ("wire_pos.py", "wire-roundtrip"),
    ("core/determinism_pos.py", "determinism"),
    ("spawn_pos.py", "spawn-safety"),
    ("async_pos.py", "async-cancellation"),
    ("loopblock_pos.py", "loop-blocking-call"),
    ("taskleak_pos.py", "task-leak"),
    ("awaitlock_pos.py", "await-under-lock"),
    ("resource_pos.py", "resource-lifecycle"),
    ("loopmut_pos.py", "threadsafe-loop-mutation"),
]

NEGATIVE_FIXTURES = [
    "lock_neg.py",
    "cache_neg.py",
    "wire_neg.py",
    "core/determinism_neg.py",
    "spawn_neg.py",
    "async_neg.py",
    "loopblock_neg.py",
    "taskleak_neg.py",
    "awaitlock_neg.py",
    "resource_neg.py",
    "loopmut_neg.py",
]


@pytest.mark.parametrize("fixture, rule", POSITIVE_FIXTURES)
def test_positive_fixture_fires_on_every_marked_line(fixture, rule):
    findings = scan(fixture)
    assert findings, f"{fixture}: expected findings, got none"
    assert {f.rule for f in findings} == {rule}
    assert sorted({f.line for f in findings}) == expected_lines(fixture)


@pytest.mark.parametrize("fixture", NEGATIVE_FIXTURES)
def test_negative_fixture_is_clean(fixture):
    assert scan(fixture) == []


def test_error_registry_positive_package():
    findings = scan("errreg_pos")
    assert {f.rule for f in findings} == {"error-registry"}
    by_path = {}
    for finding in findings:
        by_path.setdefault(Path(finding.path).name, []).append(finding)
    # Registry side: one duplicate declaration + two base-above-derived
    # ordering violations.
    registry = [f.message for f in by_path["errors.py"]]
    assert sum("more than once" in m for m in registry) == 1
    assert sum("order most-derived-first" in m for m in registry) == 2
    # Use side: a literal table outside errors.py + an undeclared code.
    uses = [f.message for f in by_path["wire.py"]]
    assert sum("outside" in m for m in uses) == 1
    assert sum("bogus_code" in m for m in uses) == 1


def test_error_registry_negative_package():
    assert scan("errreg_neg") == []


def test_determinism_rule_scoped_to_oracle_packages(tmp_path):
    # The same forbidden call outside core/keys/roadnet is not governed.
    source = "import time\n\n\ndef stamp():\n    return time.time()\n"
    governed = tmp_path / "core"
    governed.mkdir()
    (governed / "mod.py").write_text(source)
    ungoverned = tmp_path / "lbs"
    ungoverned.mkdir()
    (ungoverned / "mod.py").write_text(source)
    findings = run_analysis([tmp_path], root=tmp_path)
    assert [f.path for f in findings] == ["core/mod.py"]


def test_lock_discipline_catches_historical_counter_shape(tmp_path):
    # The historical anonymization-server counter bug, distilled: one guarded
    # increment, one bare one.
    (tmp_path / "svc.py").write_text(
        "import threading\n"
        "\n"
        "\n"
        "class Service:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "        self._requests_served = 0\n"
        "\n"
        "    def handle(self):\n"
        "        with self._lock:\n"
        "            self._requests_served += 1\n"
        "\n"
        "    def handle_fast(self):\n"
        "        self._requests_served += 1\n"
    )
    findings = run_analysis([tmp_path], root=tmp_path)
    assert [(f.rule, f.line) for f in findings] == [("lock-discipline", 14)]


def test_resource_lifecycle_catches_pr9_fd_inheritance_shape(tmp_path):
    # The PR 9 spawn bug, distilled: the parent's duplicate of the
    # child's pipe end was closed only when the spawn succeeded, so a
    # failed spawn leaked an FD into every later-forked worker and EOF
    # never reached the reader.
    (tmp_path / "pool.py").write_text(
        "import multiprocessing\n"
        "\n"
        "\n"
        "def spawn_worker(worker_main, make_handle):\n"
        "    context = multiprocessing.get_context('spawn')\n"
        "    parent_end, child_end = context.Pipe()\n"
        "    process = context.Process(\n"
        "        target=worker_main, args=(child_end,)\n"
        "    )\n"
        "    process.start()\n"
        "    if process.is_alive():\n"
        "        child_end.close()\n"
        "    return make_handle(parent_end, process)\n"
    )
    findings = run_analysis([tmp_path], root=tmp_path)
    assert [(f.rule, f.line) for f in findings] == [("resource-lifecycle", 6)]
    message = findings[0].message
    assert "child_end" in message
    assert "some paths" in message
    assert "child Process" in message


def test_loop_blocking_finding_names_the_witness_chain(tmp_path):
    # The interprocedural rules must explain *how* the loop blocks, not
    # just that it does — the chain is the actionable part.
    (tmp_path / "srv.py").write_text(
        "import time\n"
        "\n"
        "\n"
        "def low():\n"
        "    time.sleep(1.0)\n"
        "\n"
        "\n"
        "def mid():\n"
        "    low()\n"
        "\n"
        "\n"
        "async def top():\n"
        "    mid()\n"
    )
    findings = run_analysis([tmp_path], root=tmp_path)
    assert [f.rule for f in findings] == ["loop-blocking-call"]
    message = findings[0].message
    assert "mid()" in message and "low()" in message
    assert "time.sleep" in message


def test_parse_error_is_reported_not_raised(tmp_path):
    (tmp_path / "bad.py").write_text("def broken(:\n")
    findings = run_analysis([tmp_path], root=tmp_path)
    assert [f.rule for f in findings] == ["parse-error"]
