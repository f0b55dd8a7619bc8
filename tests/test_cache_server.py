"""Direct protocol tests for okc, the shared cache server (error paths
and the public namespace; the end-to-end flows live in
test_cache_supervision.py)."""

import pytest

from repro.core.labels import Label
from repro.core.levels import L0, L2, L3, STAR
from repro.ipc import protocol as P
from repro.ipc.rpc import Channel
from repro.kernel import ChangeLabel, NewHandle, Send
from repro.servers.cache import cache_body


@pytest.fixture
def cache(kernel):
    proc = kernel.spawn(cache_body, "okc")
    kernel.run()
    return proc


def probe(kernel, cache, script, name="probe"):
    def body(ctx):
        chan = yield from Channel.open()
        ctx.env["result"] = yield from script(ctx, chan, cache.env)

    proc = kernel.spawn(body, name)
    kernel.run()
    return proc


def bind_user(chan, env, uid):
    """Sub-generator: mint handles for *uid* and BIND them (as idd would)."""
    taint = yield NewHandle()
    grant = yield NewHandle()
    yield Send(
        env["cache_grant_port"],
        P.request("BIND", uid=uid, taint=taint, grant=grant),
        ds=Label({taint: STAR, grant: STAR}, L3),
    )
    return taint, grant


def test_put_get_roundtrip(kernel, cache):
    def script(ctx, chan, env):
        taint, grant = yield from bind_user(chan, env, 1)
        yield ChangeLabel(raise_receive={taint: L3})
        r1 = yield from chan.call(
            env["cache_port"],
            P.request("PUT", key="k", value="v", uid=1),
            v=Label({taint: L3, grant: L0}, L2),
        )
        r2 = yield from chan.call(
            env["cache_port"], P.request("GET", key="k", uid=1, owner=1)
        )
        return (r1.payload["ok"], r2.payload["value"], r2.payload["hit"])

    proc = probe(kernel, cache, script)
    assert proc.env["result"] == (True, "v", True)


def test_put_unknown_user_rejected(kernel, cache):
    def script(ctx, chan, env):
        r = yield from chan.call(
            env["cache_port"], P.request("PUT", key="k", value="v", uid=404)
        )
        return r.payload

    proc = probe(kernel, cache, script)
    assert proc.env["result"]["type"] == P.ERROR_R


def test_put_with_weak_verify_rejected(kernel, cache):
    def script(ctx, chan, env):
        taint, grant = yield from bind_user(chan, env, 1)
        # Default verify label ({3}) does not prove the grant.
        r = yield from chan.call(
            env["cache_port"], P.request("PUT", key="k", value="v", uid=1)
        )
        return r.payload

    proc = probe(kernel, cache, script)
    assert proc.env["result"]["type"] == P.ERROR_R


def test_get_public_miss_and_hit(kernel, cache):
    def script(ctx, chan, env):
        taint, grant = yield from bind_user(chan, env, 1)
        miss = yield from chan.call(
            env["cache_port"], P.request("GET", key="motd", uid=1, owner=0)
        )
        # Publish via declassification (we hold taint ⋆).
        yield from chan.call(
            env["cache_port"],
            P.request("PUT", key="motd", value="hello world", uid=1),
            v=Label({taint: STAR}, L2),
        )
        hit = yield from chan.call(
            env["cache_port"], P.request("GET", key="motd", uid=1, owner=0)
        )
        return (miss.payload["hit"], hit.payload["value"])

    proc = probe(kernel, cache, script)
    assert proc.env["result"] == (False, "hello world")


def test_get_unknown_owner_is_error(kernel, cache):
    def script(ctx, chan, env):
        taint, grant = yield from bind_user(chan, env, 1)
        r = yield from chan.call(
            env["cache_port"], P.request("GET", key="k", uid=1, owner=42)
        )
        return r.payload

    proc = probe(kernel, cache, script)
    assert proc.env["result"]["type"] == P.ERROR_R


def test_bind_without_star_ignored(kernel, cache):
    # An imposter BIND (no DS grant): the cache must not trust the claimed
    # handles, so a later PUT for that uid still fails.
    def script(ctx, chan, env):
        taint = yield NewHandle()
        grant = yield NewHandle()
        yield Send(
            env["cache_grant_port"],
            P.request("BIND", uid=9, taint=123456, grant=654321),  # forged values
        )
        r = yield from chan.call(
            env["cache_port"],
            P.request("PUT", key="k", value="v", uid=9),
            v=Label({taint: L3, grant: L0}, L2),
        )
        return r.payload

    proc = probe(kernel, cache, script)
    assert proc.env["result"]["type"] == P.ERROR_R
