"""Tests for the AST lint gate (``repro.analysis.lint``): every rule
fires on a planted violation in a synthetic tree, every documented
exemption holds, and the module entry point reports findings with a
non-zero exit status."""

import textwrap

import pytest

from repro.analysis.lint import (
    RULES,
    Finding,
    check_import_surface,
    lint_paths,
    main,
)
from repro.obs.events import EVENT_TYPES


def _plant(tmp_path, rel, source):
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return path


def _rules(findings):
    return {f.rule for f in findings}


# ---------------------------------------------------------------------
# one planted violation per rule
# ---------------------------------------------------------------------


def test_planted_engine_violations_all_fire(tmp_path):
    bad = _plant(
        tmp_path,
        "src/repro/bad_engine.py",
        '''
        import random
        import time

        def tick(tracer):
            tracer.emit("no_such_event", n=1)
            t = time.time()
            try:
                t += random.random()
            except:
                pass
            raise ValueError("engine code must not raise builtins")
        ''',
    )
    findings = lint_paths([bad])
    assert _rules(findings) == {
        "determinism",
        "unknown-event",
        "bare-except",
        "error-hierarchy",
    }
    by_rule = {}
    for f in findings:
        by_rule.setdefault(f.rule, []).append(f)
    # import random + the time.time() call are separate findings
    assert len(by_rule["determinism"]) == 2
    assert "no_such_event" in str(by_rule["unknown-event"][0])
    assert "ValueError" in by_rule["error-hierarchy"][0].message


def test_import_surface_violation_in_client_code(tmp_path):
    bad = _plant(
        tmp_path,
        "benchmarks/bad_client.py",
        "from repro.core.database import Database\n",
    )
    findings = lint_paths([bad])
    assert _rules(findings) == {"import-surface"}
    assert "repro.core.database" in findings[0].message
    # The same deep import in non-client code is not a surface finding.
    ok = _plant(
        tmp_path, "tools/fine.py",
        "from repro.core.database import Database\n",
    )
    assert lint_paths([ok]) == []


def test_import_surface_allows_the_facade(tmp_path):
    ok = _plant(
        tmp_path,
        "examples/fine.py",
        "import repro\nfrom repro.api import Database\n",
    )
    assert lint_paths([ok]) == []


def test_dead_event_fires_when_events_file_scanned(tmp_path):
    # A tree that contains obs/events.py but emits nothing: every
    # registry entry is dead. (The registry itself is the live one.)
    _plant(tmp_path, "src/repro/obs/events.py", '"""stub registry"""\n')
    findings = lint_paths([tmp_path / "src"], rules=("dead-event",))
    assert _rules(findings) == {"dead-event"}
    flagged = {f.message.split("'")[1] for f in findings}
    assert flagged == set(EVENT_TYPES)


def test_dead_event_silent_without_events_file(tmp_path):
    other = _plant(tmp_path, "src/repro/quiet.py", "x = 1\n")
    assert lint_paths([other], rules=("dead-event",)) == []


def test_known_event_emit_is_clean(tmp_path):
    name = sorted(EVENT_TYPES)[0]
    ok = _plant(
        tmp_path,
        "src/repro/good_engine.py",
        f'def go(tracer):\n    tracer.emit("{name}")\n',
    )
    assert lint_paths([ok], rules=("unknown-event",)) == []


# ---------------------------------------------------------------------
# exemptions
# ---------------------------------------------------------------------


def test_determinism_exempts_faults_and_rng(tmp_path):
    for rel in ("src/repro/faults/noise.py", "src/repro/common/rng.py"):
        path = _plant(tmp_path, rel, "import random\nimport time\n"
                                     "t = time.time()\n")
        assert lint_paths([path], rules=("determinism",)) == [], rel
    # ...but not the rest of common/
    bad = _plant(tmp_path, "src/repro/common/clockish.py", "import random\n")
    assert _rules(lint_paths([bad])) == {"determinism"}


def test_error_hierarchy_exemptions(tmp_path):
    ok = _plant(
        tmp_path,
        "src/repro/polite.py",
        '''
        from repro.common.errors import ReproError

        class Box:
            def __getitem__(self, key):
                raise KeyError(key)  # data-model protocol

        def stub():
            raise NotImplementedError

        def rethrow():
            try:
                return 1
            except ReproError as exc:
                raise exc

        def hierarchy():
            raise ReproError("fine")
        ''',
    )
    assert lint_paths([ok], rules=("error-hierarchy",)) == []


def test_error_hierarchy_only_applies_to_engine_files(tmp_path):
    ok = _plant(tmp_path, "scripts/tool.py", 'raise ValueError("fine here")\n')
    assert lint_paths([ok], rules=("error-hierarchy",)) == []


# ---------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------


def test_syntax_error_is_reported_not_raised(tmp_path):
    bad = _plant(tmp_path, "src/repro/broken.py", "def nope(:\n")
    findings = lint_paths([bad])
    assert _rules(findings) == {"syntax"}


def test_findings_sorted_and_formatted(tmp_path):
    bad = _plant(
        tmp_path,
        "src/repro/two.py",
        "import random\n\n\nraise ValueError('x')\n",
    )
    findings = lint_paths([bad])
    assert [f.line for f in findings] == sorted(f.line for f in findings)
    text = str(findings[0])
    assert str(bad) in text and "[determinism]" in text
    assert repr(Finding("p", 1, "r", "m")) == "Finding(p:1: [r] m)"


def test_check_import_surface_on_a_tree(tmp_path):
    _plant(tmp_path, "benchmarks/bad.py", "import repro.obs.tracer\n")
    _plant(tmp_path, "examples/ok.py", "from repro.api import Database\n")
    # Only the surface rule runs — this engine-style crime is ignored.
    _plant(tmp_path, "benchmarks/other.py", "raise ValueError('ignored')\n")
    findings = check_import_surface(tmp_path)
    assert [f.rule for f in findings] == ["import-surface"]
    assert "repro.obs.tracer" in findings[0].message


def test_main_exit_codes(tmp_path, capsys):
    bad = _plant(tmp_path, "src/repro/bad.py", "import random\n")
    assert main([str(bad)]) == 1
    out = capsys.readouterr().out
    assert "[determinism]" in out and "1 finding(s)" in out
    ok = _plant(tmp_path, "src/repro/ok.py", "x = 1\n")
    assert main([str(ok)]) == 0
    with pytest.raises(SystemExit):
        main([str(ok), "--rules", "no-such-rule"])


def test_dist_isolation_fires_outside_dist(tmp_path):
    bad = _plant(
        tmp_path,
        "src/repro/core/sneaky.py",
        '''
        def bypass(sharded):
            return sharded._engines[0]
        ''',
    )
    findings = lint_paths([bad])
    assert _rules(findings) == {"dist-isolation"}
    assert "._engines" in findings[0].message


def test_dist_isolation_exempts_the_dist_package(tmp_path):
    ok = _plant(
        tmp_path,
        "src/repro/dist/facade.py",
        '''
        def route(sharded, pid):
            return sharded._engines[pid]
        ''',
    )
    assert lint_paths([ok]) == []


def test_transport_discipline_fires_on_commit_path_engine_access(tmp_path):
    bad = _plant(
        tmp_path,
        "src/repro/dist/shortcut.py",
        '''
        def commit(self, dtxn):
            for pid in dtxn.branches:
                self._engines[pid].commit(dtxn.branches[pid])
        ''',
    )
    findings = lint_paths([bad])
    assert _rules(findings) == {"transport-discipline"}
    assert "repro.dist.net" in findings[0].message


def test_transport_discipline_fires_in_nested_helpers(tmp_path):
    bad = _plant(
        tmp_path,
        "src/repro/dist/nested.py",
        '''
        def _two_phase_commit(self, dtxn):
            def send(pid):
                return self._engines[pid]
            return send(0)
        ''',
    )
    assert _rules(lint_paths([bad])) == {"transport-discipline"}


def test_transport_discipline_exempts_non_protocol_methods(tmp_path):
    # Construction, operator accessors, and folded reads legitimately
    # hold the engine list; only the protocol methods must use the
    # transport. Outside repro/dist/ the dist-isolation rule governs.
    ok = _plant(
        tmp_path,
        "src/repro/dist/accessors.py",
        '''
        def partition(self, pid):
            return self._engines[pid]

        def read_committed(self, table, key):
            return self._engines[0].read_committed(table, key)
        ''',
    )
    assert lint_paths([ok]) == []


def test_import_surface_flags_from_repro_submodule_form(tmp_path):
    bad = _plant(tmp_path, "examples/bad.py", "from repro import core\n")
    findings = lint_paths([bad])
    assert _rules(findings) == {"import-surface"}
    ok = _plant(tmp_path, "examples/good.py", "from repro import api\n")
    assert lint_paths([ok]) == []


def test_rules_tuple_is_the_documented_set():
    assert RULES == (
        "unknown-event",
        "dead-event",
        "event-flow",
        "determinism",
        "error-hierarchy",
        "bare-except",
        "swallowed-exception",
        "import-surface",
        "page-discipline",
        "dist-isolation",
        "transport-discipline",
    )


# ---------------------------------------------------------------------
# the dataflow rules
# ---------------------------------------------------------------------


def test_event_flow_resolves_propagated_constants(tmp_path):
    bad = _plant(
        tmp_path,
        "src/repro/flowy.py",
        '''
        NAME = "bogus_event"

        def go(tracer):
            tracer.emit(NAME, n=1)
        ''',
    )
    findings = lint_paths([bad], rules=("event-flow",))
    assert _rules(findings) == {"event-flow"}
    assert "bogus_event" in findings[0].message


def test_event_flow_accepts_a_registered_constant(tmp_path):
    name = sorted(EVENT_TYPES)[0]
    ok = _plant(
        tmp_path,
        "src/repro/flowy.py",
        f'''
        NAME = "{name}"

        def go(tracer):
            tracer.emit(NAME)
        ''',
    )
    assert lint_paths([ok], rules=("event-flow",)) == []


def test_event_flow_local_shadows_module_constant(tmp_path):
    name = sorted(EVENT_TYPES)[0]
    bad = _plant(
        tmp_path,
        "src/repro/flowy.py",
        f'''
        NAME = "{name}"

        def go(tracer):
            NAME = "shadowed_event"
            tracer.emit(NAME)
        ''',
    )
    findings = lint_paths([bad], rules=("event-flow",))
    assert _rules(findings) == {"event-flow"}
    assert "shadowed_event" in findings[0].message


def test_event_flow_flags_unresolvable_names(tmp_path):
    # A rebound or parameter-passed name cannot be checked against the
    # catalogue — that opacity is itself the finding.
    for body in (
        'def go(tracer, which):\n    tracer.emit(which)\n',
        'def go(tracer, cond):\n'
        '    name = "a_event" if cond else "b_event"\n'
        '    tracer.emit(name)\n',
    ):
        bad = _plant(tmp_path, "src/repro/flowy.py", body)
        findings = lint_paths([bad], rules=("event-flow",))
        assert _rules(findings) == {"event-flow"}, body
        assert "not a statically-resolvable" in findings[0].message


def test_event_flow_gives_dead_event_credit(tmp_path):
    # An event emitted only through a propagated constant still counts
    # as live for the dead-event rule.
    name = sorted(EVENT_TYPES)[0]
    _plant(tmp_path, "src/repro/obs/events.py", '"""stub registry"""\n')
    _plant(
        tmp_path,
        "src/repro/flowy.py",
        f'NAME = "{name}"\n\ndef go(tracer):\n    tracer.emit(NAME)\n',
    )
    findings = lint_paths(
        [tmp_path / "src"], rules=("dead-event", "event-flow")
    )
    flagged = {f.message.split("'")[1] for f in findings}
    assert name not in flagged
    assert flagged == set(EVENT_TYPES) - {name}


def test_swallowed_exception_fires_on_builtin_pass(tmp_path):
    bad = _plant(
        tmp_path,
        "src/repro/gulp.py",
        '''
        def quiet(path):
            try:
                return open(path).read()
            except OSError:
                pass
        ''',
    )
    findings = lint_paths([bad], rules=("swallowed-exception",))
    assert _rules(findings) == {"swallowed-exception"}
    assert "OSError" in findings[0].message


def test_swallowed_exception_fires_on_continue_in_tuple(tmp_path):
    bad = _plant(
        tmp_path,
        "benchmarks/gulp.py",
        '''
        def quiet(paths):
            for p in paths:
                try:
                    yield open(p).read()
                except (ValueError, KeyError):
                    continue
        ''',
    )
    findings = lint_paths([bad], rules=("swallowed-exception",))
    assert _rules(findings) == {"swallowed-exception"}
    assert "ValueError, KeyError" in findings[0].message


def test_swallowed_exception_allows_handled_and_repro_errors(tmp_path):
    ok = _plant(
        tmp_path,
        "src/repro/polite.py",
        '''
        from repro.common.errors import StorageError

        def a(path):
            try:
                return open(path).read()
            except OSError as exc:
                return exc  # recorded, not swallowed

        def b(records):
            for r in records:
                try:
                    r.load()
                except StorageError:
                    continue  # engine-hierarchy swallows are deliberate
        ''',
    )
    assert lint_paths([ok], rules=("swallowed-exception",)) == []


def test_swallowed_exception_exempts_the_errors_module(tmp_path):
    ok = _plant(
        tmp_path,
        "src/repro/common/errors.py",
        '''
        def probe(x):
            try:
                return int(x)
            except ValueError:
                pass
        ''',
    )
    assert lint_paths([ok], rules=("swallowed-exception",)) == []


def test_import_surface_allows_analysis_in_benchmarks_only(tmp_path):
    ok = _plant(
        tmp_path,
        "benchmarks/gate.py",
        "from repro.analysis.lint import lint_paths\n"
        "from repro.analysis.static import StaticAnalyzer\n"
        "from repro import analysis\n",
    )
    assert lint_paths([ok], rules=("import-surface",)) == []
    bad = _plant(
        tmp_path,
        "examples/gate.py",
        "from repro.analysis.lint import lint_paths\n",
    )
    findings = lint_paths([bad], rules=("import-surface",))
    assert _rules(findings) == {"import-surface"}
