"""Wall-clock execution: one thread per party plus a server loop.

Parties block on their replies (one outstanding request each) and the server
thread is the only writer of the head parameters, the cache, the transcript,
and the metrics, so there is no shared mutable training state.  The
REVELIGHT_THREADS environment variable caps how many party threads may be
computing at once.  Unlike the virtual clock, wall-clock interleaving is
scheduler-dependent, so transcripts are not reproducible across runs; the
bounded-staleness clamp applies only to the simulated mode.
"""

from __future__ import annotations

import os
import queue
import threading
import time as _time


def run_asyrevel_wall(cfg, data, local_model, global_model, test_data=None):
    from .engine import _start_protocol

    parties, server, rec = _start_protocol(cfg, data, local_model, global_model, test_data)
    transcript = rec.transcript

    cap = os.environ.get("REVELIGHT_THREADS")
    slots = threading.Semaphore(max(1, int(cap)) if cap else cfg.q)
    to_server: queue.Queue = queue.Queue()
    reply_queues = {p.id: queue.Queue() for p in parties}
    stop = threading.Event()

    def party_loop(party):
        while not stop.is_set():
            with slots:
                upload = party.start_step()
                sent = _time.perf_counter()
                to_server.put((upload, sent))
                reply = reply_queues[party.id].get()
                if reply is None:
                    return
                v_hat = party.apply_reply(reply)
                rec.note_update(party.id, v_hat)

    threads = [threading.Thread(target=party_loop, args=(p,), daemon=True) for p in parties]
    t0 = _time.perf_counter()
    rec.log(0, 0.0, server.w0, [p.w for p in parties])
    for th in threads:
        th.start()

    k = 0
    while k < cfg.T and not rec.stopped:
        upload, _sent = to_server.get()
        transcript.record(_time.perf_counter() - t0, "up", upload)
        reply = server.handle_upload(upload, event=k + 1)
        k += 1
        transcript.record(_time.perf_counter() - t0, "down", reply)
        if server.last_v0 is not None:
            rec.note_update(0, server.last_v0)
        reply_queues[upload.party].put(reply)
        if rec.due(k):
            rec.log(k, _time.perf_counter() - t0, server.w0, [p.w for p in parties])

    stop.set()
    for q_ in reply_queues.values():
        q_.put(None)
    for th in threads:
        th.join(timeout=5.0)
    # drop uploads from parties that were mid-flight at shutdown
    while not to_server.empty():
        to_server.get_nowait()
    return rec.finish(server.w0, [p.w for p in parties], [p.steps for p in parties])
