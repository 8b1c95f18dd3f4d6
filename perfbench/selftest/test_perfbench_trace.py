"""The traced run's wrappers: every caller binding, self time, the guard."""

import time

import pbtrace


def test_every_caller_binding_is_wrapped_then_restored():
    import repro.compaction.executor as executor
    import repro.compaction.full as full
    import repro.core.engine as engine

    originals = (engine.build_run, executor.build_run, full.build_run,
                 executor.merge_for_compaction, full.merge_for_compaction)
    installed = pbtrace.Installed(pbtrace.Tracer()).install()
    try:
        wrapped = (engine.build_run, executor.build_run, full.build_run,
                   executor.merge_for_compaction, full.merge_for_compaction)
        for before, after in zip(originals, wrapped):
            assert after is not before and after.__wrapped__ is before
    finally:
        installed.restore()
    assert (engine.build_run, executor.build_run, full.build_run,
            executor.merge_for_compaction, full.merge_for_compaction) == originals


def test_self_time_excludes_child_spans():
    tracer = pbtrace.Tracer()
    inner = tracer.wrap("inner", lambda: time.sleep(0.03))

    def outer_body():
        time.sleep(0.02)
        inner()

    outer = tracer.wrap("outer", outer_body)
    outer()                       # inactive: nothing recorded
    assert tracer.calls == {}
    tracer.active = True
    outer()
    assert tracer.calls == {"outer": 1, "inner": 1}
    assert tracer.total_s["outer"] >= 0.05
    assert 0.015 <= tracer.self_s["outer"] < 0.03
    parents = {name: parent for _, name, _, _, parent, _ in tracer.spans}
    ids = {name: span_id for span_id, name, *_ in tracer.spans}
    assert parents["inner"] == ids["outer"] and parents["outer"] == 0


def test_wrappers_fire_on_a_real_engine_and_the_guard_names_silent_ones():
    from repro import LSMEngine

    import pbload

    tracer = pbtrace.Tracer()
    installed = pbtrace.Installed(tracer).install()
    try:
        engine = LSMEngine(pbload.engine_config(2_000))
        tracer.active = True
        for key in range(600):
            engine.put(key, f"v{key}", key)
        engine.flush()
        assert engine.get(5) == "v5"
        tracer.active = False
    finally:
        installed.restore()
    assert tracer.calls["build.build_run"] > 0
    assert tracer.calls["kiwi.tile_build"] > 0
    assert tracer.counts["bloom.keys_added"] >= 600
    assert tracer.calls["tree.lookup"] == 1
    missing = pbtrace.check_fired(tracer, "ingest")
    assert "persist.wal_append" in missing and "build.build_run" not in missing
