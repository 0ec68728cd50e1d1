"""What a service run says with every signal on, pinned per session.

Sixteen sessions stream for 2 s on the benchmark harness's virtual-time
loop with decision records, spans and metrics on. The pin is a sha256
over the FIN summaries, the metrics exposition and, per session, its
decision records and its spans in recorded order. The shared rings'
interleaving of sessions (and so a record's ``seq``) follows the order
in which the service processes sessions and is left out: only each
session's own sequence is a fact about its stream.
"""

import hashlib
import json
from collections import defaultdict

from repro.service.client import LoadFleet
from repro.service.server import ServiceConfig, StreamingService

from tests.service.census import close_and_census
from tests.service.test_hostile_feedback import virtual_loop
from tests.service.test_scheduler_budget import SUITE_IMPAIRMENT, SUITE_QA

#: Equal at the commit that still woke each session at every deadline.
PINNED = "907921c5b79313404fa69385d45be37c0f4bd5d5158f113e4bf813d31304f06c"


def _signals(service, results):
    records = defaultdict(list)
    for record in service.recorder:
        records[record.source].append(
            [record.time, record.kind, record.fields])
    spans = defaultdict(list)
    for span in service.spans:
        spans[span.source].append(json.loads(span.to_json()))
    return {
        "summaries": [[r.label, r.server_summary] for r in results],
        "metrics": service.metrics.to_prometheus(),
        "records": dict(sorted(records.items())),
        "spans": dict(sorted(spans.items())),
    }


def test_signals_on_run_is_pinned_per_session():
    loop = virtual_loop.VirtualLoop()

    async def run():
        service = await StreamingService.start(ServiceConfig(
            qa=SUITE_QA, record_decisions=True, trace_spans=True,
            collect_metrics=True))
        fleet = LoadFleet("127.0.0.1", service.port, sessions=16,
                          duration=2.0, spread=1.0, seed=0,
                          impairment=SUITE_IMPAIRMENT)
        results = await fleet.run()
        await close_and_census(service)
        return service, results

    try:
        service, results = loop.run_until_complete(run())
    finally:
        loop.close()
    assert all(r.ok for r in results)
    assert service.recorder.evicted == 0 and service.spans.evicted == 0
    signals = _signals(service, results)
    assert len(signals["records"]) == len(signals["spans"]) == 16
    blob = json.dumps(signals, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(blob.encode()).hexdigest() == PINNED
