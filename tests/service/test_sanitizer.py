"""Loop-stall sanitizer: lag sampling and stall counting.

No pytest-asyncio in the toolchain; each test drives its own event
loop through ``asyncio.run`` (see test_loopback.py). Stall tests use
a deliberate ``time.sleep`` inside the loop -- the exact pathology
``test_no_blocking.py`` keeps out of the service -- to prove the
runtime side catches it.
"""

import asyncio
import time

from repro.service.sanitizer import LoopSanitizer, SanitizerConfig
from repro.telemetry.metrics import MetricsRegistry

#: A fast heartbeat so tests finish in tens of milliseconds.
FAST = SanitizerConfig(interval=0.01, stall_threshold=0.02)


class TestLagSampling:
    def test_idle_loop_reports_no_stalls(self):
        async def run():
            sanitizer = LoopSanitizer(config=FAST)
            await sanitizer.start()
            await asyncio.sleep(0.08)
            await sanitizer.stop()
            return sanitizer.report()

        report = asyncio.run(run())
        assert report["lag_samples"] >= 3
        assert report["stalls"] == 0
        assert report["lag_p99"] < FAST.stall_threshold

    def test_blocking_callback_registers_a_stall(self):
        async def run():
            sanitizer = LoopSanitizer(config=FAST)
            await sanitizer.start()
            await asyncio.sleep(0.02)  # let the heartbeat settle in
            time.sleep(0.08)  # hold the loop across several beats
            await asyncio.sleep(0.02)
            await sanitizer.stop()
            return sanitizer.report()

        report = asyncio.run(run())
        assert report["stalls"] >= 1
        assert report["lag_max"] >= 0.05

    def test_stop_is_idempotent_and_start_once(self):
        async def run():
            sanitizer = LoopSanitizer(config=FAST)
            await sanitizer.start()
            first = sanitizer._task
            await sanitizer.start()  # second start is a no-op
            assert sanitizer._task is first
            await sanitizer.stop()
            await sanitizer.stop()  # second stop is a no-op
            return first

        assert asyncio.run(run()).cancelled()


class TestMetricsExport:
    def test_lag_and_stalls_reach_the_registry(self):
        registry = MetricsRegistry(enabled=True)

        async def run():
            sanitizer = LoopSanitizer(config=FAST, metrics=registry)
            await sanitizer.start()
            await asyncio.sleep(0.02)
            time.sleep(0.08)
            await asyncio.sleep(0.02)  # let the lagged beat record
            await sanitizer.stop()
            return sanitizer.report()

        report = asyncio.run(run())
        text = registry.to_prometheus()
        assert "service_loop_lag_seconds" in text
        assert "service_loop_stalls_total" in text
        assert report["stalls"] >= 1

    def test_disabled_registry_records_nothing(self):
        registry = MetricsRegistry(enabled=False)

        async def run():
            sanitizer = LoopSanitizer(config=FAST, metrics=registry)
            await sanitizer.start()
            await asyncio.sleep(0.03)
            await sanitizer.stop()
            return sanitizer.report()

        report = asyncio.run(run())
        assert report["lag_samples"] >= 1  # sampling itself still works
        assert registry.to_prometheus() == ""
