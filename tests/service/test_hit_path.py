"""The exact-key hit path: body digest -> key -> stored bytes, verbatim.

A body the server has decoded once is remembered by its sha256 digest, so
replaying it costs one hash and one cache read: no CDFG decode, no key or
warm-key hash, no parse/re-encode of the stored result.
"""

from __future__ import annotations

import http.client
import json
import sys
import threading
from urllib.parse import urlparse

import pytest

import repro.service.jobs as jobs_module
import repro.service.server as server_module
from repro.service.client import ServiceClient
from repro.service.server import (BODY_MEMO_SIZE, AllocationService,
                                  ServerThread, _splice)

FAST_BODY = {"cdfg": {"bench": "ewf"}, "length": 17, "seed": 2,
             "improve": {"max_trials": 1, "moves_per_trial": 60}}


def raw(body, **extra):
    return json.dumps(dict(body, **extra)).encode("utf-8")


def parsed(reply):
    return json.loads(reply) if isinstance(reply, bytes) else reply


@pytest.fixture
def service():
    svc = AllocationService(workers=1, persistent_cache=False)
    yield svc
    svc.close()


@pytest.fixture(scope="module")
def server():
    thread = ServerThread(workers=2, persistent_cache=False)
    with thread as url:
        ServiceClient(url).wait_until_healthy()
        yield url, thread.service


def counting(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def undecoded(svc):
    return svc.metrics.counter("requests_allocate_undecoded").value


def post(url, body_bytes, path="/allocate", method="POST"):
    """One request over http.client; returns (status, raw reply bytes)."""
    parts = urlparse(url)
    conn = http.client.HTTPConnection(parts.hostname, parts.port,
                                      timeout=120)
    try:
        conn.request(method, path, body=body_bytes,
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def test_replayed_body_is_not_decoded_or_rehashed(service, monkeypatch):
    decodes = counting(monkeypatch, server_module, "request_from_dict")
    keys = counting(monkeypatch, jobs_module, "request_key")
    warm_keys = counting(monkeypatch, jobs_module, "warm_key")
    body = raw(FAST_BODY)

    status, first = service.allocate(body)
    assert status == 200 and parsed(first)["cached"] is False
    assert (len(decodes), len(keys), len(warm_keys)) == (1, 1, 1)

    for _ in range(3):
        status, again = service.allocate(body)
        assert status == 200
        assert parsed(again)["cached"] is True
        assert parsed(again)["result"] == parsed(first)["result"]
    assert (len(decodes), len(keys), len(warm_keys)) == (1, 1, 1)
    assert undecoded(service) == 3


def test_hit_reply_carries_the_stored_bytes_verbatim(server):
    url, svc = server
    body = raw(FAST_BODY, seed=41)
    status, miss = post(url, body)
    assert status == 200
    key = json.loads(miss)["result"]["key"]
    stored = svc.cache.get(key)

    status, hit = post(url, body)
    assert status == 200
    assert b'"result": ' + stored + b", " in hit
    reply = json.loads(hit)
    assert reply["cached"] is True and reply["degraded"] is False
    assert reply["status"] == "done"
    assert reply["result"] == json.loads(miss)["result"]


def test_splice_matches_the_sorted_json_encoding():
    envelope = {"status": "done", "job_id": "abc", "cached": True,
                "degraded": False, "waiters": 1, "error": None,
                "run_seconds": 0.25}
    result = {"b": [1, 2.5, None], "a": {"z": "x", "y": True}}
    encoded = json.dumps(result, sort_keys=True).encode("utf-8")
    assert _splice(envelope, encoded) == json.dumps(
        dict(envelope, result=result), sort_keys=True).encode("utf-8")


def test_reordered_body_hits_via_decode_with_the_same_key(service,
                                                          monkeypatch):
    body = dict(FAST_BODY, seed=3)
    status, first = service.allocate(raw(body))
    assert status == 200
    decodes = counting(monkeypatch, server_module, "request_from_dict")

    reordered = json.dumps(dict(reversed(list(body.items()))),
                           indent=3).encode("utf-8")
    status, again = service.allocate(reordered)
    assert status == 200
    assert len(decodes) == 1
    assert undecoded(service) == 0
    assert parsed(again)["cached"] is True
    assert parsed(again)["job_id"] == parsed(first)["job_id"]
    assert parsed(again)["result"]["key"] == parsed(first)["result"]["key"]

    # now remembered too: the next replay of either spelling is undecoded
    service.allocate(reordered)
    service.allocate(raw(body))
    assert len(decodes) == 1
    assert undecoded(service) == 2


@pytest.mark.parametrize("body", [
    b"{not json",
    raw({"cdfg": {"bench": "ewf"}, "bogus_field": 1}),
    b"[1, 2]",
    b"\xff\xfe",
])
def test_bad_body_is_400_every_time(server, body):
    url, svc = server
    remembered = len(svc._body_keys)
    for _ in range(2):
        status, reply = post(url, body)
        assert status == 400
        assert "error" in json.loads(reply)
    assert len(svc._body_keys) == remembered


def test_uncached_body_is_never_served_from_cache_or_remembered(
        service, monkeypatch):
    body = dict(FAST_BODY, seed=4)
    service.allocate(raw(body))
    assert service.allocate(raw(body))[1] is not None
    assert len(service._body_keys) == 1
    decodes = counting(monkeypatch, server_module, "request_from_dict")

    bypass = raw(body, cache=False)
    for _ in range(2):
        status, reply = service.allocate(bypass)
        assert status == 200
        assert parsed(reply)["cached"] is False
    assert len(decodes) == 2
    assert len(service._body_keys) == 1
    assert undecoded(service) == 1


def test_memo_stays_within_its_capacity(service):
    body = raw(FAST_BODY, seed=5)
    service.allocate(body)
    # the same request spelt with more and more trailing blanks: every
    # spelling is a distinct body and a cache hit
    spellings = [body + b" " * n for n in range(BODY_MEMO_SIZE + 40)]
    for spelling in spellings:
        status, _ = service.allocate(spelling)
        assert status == 200
    assert len(service._body_keys) == BODY_MEMO_SIZE
    before = undecoded(service)
    service.allocate(spellings[-1])
    assert undecoded(service) == before + 1  # newest is remembered
    service.allocate(body)
    assert undecoded(service) == before + 1  # oldest was evicted


def test_evicted_entry_falls_through_to_a_search():
    # a memory tier with room for one ~21 KB EWF result: the second
    # result evicts the first while the memo still remembers its body
    svc = AllocationService(workers=1, persistent_cache=False,
                            memory_budget=32 * 1024)
    try:
        first, second = raw(FAST_BODY, seed=6), raw(FAST_BODY, seed=8)
        _, reply = svc.allocate(first)
        key = parsed(reply)["result"]["key"]
        svc.allocate(second)
        assert svc.cache.get(key) is None

        status, again = svc.allocate(first)
        assert status == 200
        assert parsed(again)["cached"] is False
        assert parsed(again)["result"]["key"] == key
        assert undecoded(svc) == 0
    finally:
        svc.close()


def test_job_status_of_a_cache_served_record(service):
    body = raw(FAST_BODY, seed=7)
    service.allocate(body)
    _, hit = service.allocate(body)
    job_id = parsed(hit)["job_id"]
    job = service.jobs.get(job_id)
    stored = service.cache.get(job.key)

    status, reply = service.job_status(job_id)
    assert status == 200
    assert isinstance(reply, bytes)
    assert b'"result": ' + stored in reply
    expected = dict(job.describe(), cached=True, degraded=False,
                    result=json.loads(stored))
    assert json.loads(reply) == expected


def test_concurrent_hits_all_get_their_own_result(server):
    url, svc = server
    bodies = [raw(FAST_BODY, seed=seed) for seed in (51, 52)]
    expected = []
    for body in bodies:
        status, reply = post(url, body)
        assert status == 200
        expected.append(json.loads(reply)["result"])
    before = undecoded(svc)
    failures = []
    per_thread = 30

    def hammer(offset):
        for n in range(per_thread):
            index = (n + offset) % 2
            status, reply = post(url, bodies[index])
            got = json.loads(reply)
            if status != 200 or not got["cached"] \
                    or got["result"] != expected[index]:
                failures.append((offset, n, status))

    # more threads than the two cores, switching often
    threads = [threading.Thread(target=hammer, args=(offset,))
               for offset in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    assert undecoded(svc) == before + 4 * per_thread


def test_undecoded_hits_reported_in_metricsz(server):
    url, _ = server
    client = ServiceClient(url)
    body = dict(FAST_BODY, seed=61)
    client.allocate(body)
    before = client.metricsz()["requests_allocate_undecoded"]["value"]
    client.allocate(body)
    after = client.metricsz()
    assert after["requests_allocate_undecoded"]["value"] == before + 1
    report = client.metricsz(condensed=True)
    assert report["cache"]["undecoded_hits"] == before + 1
