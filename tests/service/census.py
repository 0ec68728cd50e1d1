"""The task census every test that starts a ``StreamingService`` ends with.

The service owns one task, the scheduler that steps its sessions, and
``close()`` cancels and awaits it. So once a test has closed the service
and awaited what it started itself, no task but the caller's may be
left alive on the loop.
"""

import asyncio


async def close_and_census(service):
    """``await service.close()``, then assert no other task is alive."""
    await service.close()
    left = [t for t in asyncio.all_tasks() if t is not asyncio.current_task()]
    assert left == [], f"tasks alive after close(): {left}"
