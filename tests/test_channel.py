"""Shutter-gated single-photodiode channel."""

import itertools
import os
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from shuttervlc import channel
from shuttervlc.channel import (ChannelConfig, ChannelError, NoiseStream,
                                PixelMask, ac_power, receive, received_snr_db)


def _blocks(*arrays):
    return [np.asarray(a, dtype=float) for a in arrays]


def test_mask_constructors():
    assert PixelMask(3, range(3)).states() == [1, 1, 1]
    assert PixelMask(2).states() == [0, 0]
    assert PixelMask(2).open == frozenset()
    assert PixelMask(4, {2}).open == frozenset({2})
    assert PixelMask(4, [0, 3, 3]).states() == [1, 0, 0, 1]
    assert PixelMask(5, [1]).n_pixels == 5


@pytest.mark.parametrize("pixel", [-1, 4, 0.5, 1.0])
def test_mask_rejects_out_of_range_pixel(pixel):
    with pytest.raises(ChannelError):
        PixelMask(4, {0, pixel})


def test_receive_sums_open_pixels():
    cfg = ChannelConfig(emitter_gain=(1.0, 2.0), emitter_pixel=(0, 1),
                        ambient_dc=(0.0, 0.0))
    blocks = _blocks([1.0, 1.0], [0.5, 0.5])
    out = receive(blocks, PixelMask(2, {0, 1}), cfg)
    np.testing.assert_allclose(out, [2.0, 2.0])


def test_closed_pixel_gates_with_leakage():
    cfg = ChannelConfig(emitter_gain=(1.0, 1.0), emitter_pixel=(0, 1),
                        ambient_dc=(0.0, 0.0), closed_leakage=0.1)
    blocks = _blocks([4.0], [2.0])
    out = receive(blocks, PixelMask(2, {0}), cfg)
    np.testing.assert_allclose(out, [4.0 + 0.2])
    out = receive(blocks, PixelMask(2), cfg)
    np.testing.assert_allclose(out, [0.6])


def test_ambient_dc_follows_its_pixel_gate():
    cfg = ChannelConfig(emitter_gain=(), emitter_pixel=(),
                        ambient_dc=(3.0, 5.0))
    out = receive([], PixelMask(2, {1}), cfg)
    assert out.size == 0   # no emitter blocks -> zero-length output
    cfg2 = ChannelConfig(emitter_gain=(1.0,), emitter_pixel=(0,),
                         ambient_dc=(3.0, 5.0))
    out = receive(_blocks([0.0, 0.0]), PixelMask(2, {1}), cfg2)
    np.testing.assert_allclose(out, [5.0, 5.0])


@pytest.mark.parametrize("leak", [0.0, 0.1])
def test_ambient_term_matches_per_pixel_gating(leak):
    # the reference gates every pixel's ambient light in turn
    for ambient in ((3.0, 5.0, 0.0), (1.0, 0.0, 0.0), (0.25, 0.5, 0.75)):
        cfg = ChannelConfig(emitter_gain=(1.0,), emitter_pixel=(0,),
                            ambient_dc=ambient, closed_leakage=leak)
        for open_pixels in ((), (0,), (1,), (0, 2), (0, 1, 2)):
            out = receive(_blocks([0.0]), PixelMask(3, open_pixels), cfg)
            expected = sum(a * (1.0 if p in open_pixels else leak)
                           for p, a in enumerate(ambient))
            if leak == 0.0:     # the same sum, in the same order
                assert out[0] == max(expected, 0.0)
            else:
                np.testing.assert_allclose(out, [max(expected, 0.0)],
                                           rtol=1e-12, atol=1e-15)
    # a sum that overflows, and light that is negative
    for ambient in ((1e308, 1e308), (-50.0, 0.0), (0.25, -1e-300)):
        with pytest.raises(ChannelError):
            ChannelConfig(emitter_gain=(), emitter_pixel=(), ambient_dc=ambient)


def test_saturation_clips_and_floor_at_zero():
    cfg = ChannelConfig(emitter_gain=(1.0,), emitter_pixel=(0,),
                        ambient_dc=(0.0,), saturation_level=2.0)
    out = receive(_blocks([-1.0, 1.0, 5.0]), PixelMask(1, {0}), cfg)
    np.testing.assert_allclose(out, [0.0, 1.0, 2.0])


def test_noise_is_deterministic_per_seed():
    cfg = ChannelConfig(emitter_gain=(1.0,), emitter_pixel=(0,),
                        ambient_dc=(0.0,), noise_sigma=0.5)
    blocks = _blocks(np.ones(256))
    mask = PixelMask(1, {0})
    a = receive(blocks, mask, cfg, rng=np.random.default_rng(11))
    b = receive(blocks, mask, cfg, rng=np.random.default_rng(11))
    np.testing.assert_array_equal(a, b)
    # one generator advances across calls
    rng = np.random.default_rng(11)
    c = receive(blocks, mask, cfg, rng=rng)
    d = receive(blocks, mask, cfg, rng=rng)
    assert not np.array_equal(c, d)
    # noise comes only from the caller's generator
    with pytest.raises(ChannelError):
        receive(blocks, mask, cfg)


def _reference_receive(blocks, mask, cfg, rng):
    """`receive` as one all-zero array plus each term, out of place: the
    gated emitters in order, the ambient light, then rng.normal noise."""
    n = len(blocks[0])
    out = np.zeros(n)
    for block, gain, pixel in zip(blocks, cfg.emitter_gain, cfg.emitter_pixel):
        weight = gain * (1.0 if pixel in mask.open else cfg.closed_leakage)
        if weight:
            out += weight * block
    if cfg.ambient_total:
        out += (cfg.closed_leakage * cfg.ambient_total + (1 - cfg.closed_leakage)
                * sum(cfg.ambient_dc[p] for p in sorted(mask.open)))
    if cfg.noise_sigma > 0:
        out += rng.normal(0.0, cfg.noise_sigma, size=n)
    return np.clip(out, 0.0, cfg.saturation_level)


def test_receive_matches_reference_bit_for_bit():
    # 0, 1 or 2 lit emitters (a closed one is lit by leakage), with or
    # without ambient light and noise, on blocks of 0, 1 and odd lengths,
    # and of lengths that end just inside, just past and well past the
    # output's chunks; saturation and the floor at 0 both clip. The noise
    # comes from a generator, or from a run's stream of the same generator
    data = np.random.default_rng(23)
    chunk = channel._CHUNK
    for opened, leak, ambient, sigma, n, stream in itertools.product(
            [(), (0,), (0, 1)], [0.0, 0.05], [(0.0,) * 3, (0.3, 0.0, 0.7)],
            [0.0, 0.05], [0, 1, 7, 1001, chunk - 1, chunk + 1, 2 * chunk + 7],
            [False, True]):
        cfg = ChannelConfig(emitter_gain=(0.9, 1.3), emitter_pixel=(0, 1),
                            ambient_dc=ambient, noise_sigma=sigma,
                            closed_leakage=leak, saturation_level=1.6)
        blocks = _blocks(*data.uniform(0.0, 1.2, (2, n)))
        before = [b.copy() for b in blocks]
        mask = PixelMask(3, opened)
        rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
        got = receive(blocks, mask, cfg,
                      rng=NoiseStream(rng) if stream else rng)
        expected = _reference_receive(blocks, mask, cfg, ref_rng)
        assert got.tobytes() == expected.tobytes()
        if not stream:  # a stream may have drawn ahead
            assert rng.bit_generator.state == ref_rng.bit_generator.state
        # the emitter blocks are read, never written
        assert all(np.array_equal(b, a) for b, a in zip(blocks, before))


def test_receive_validation():
    cfg = ChannelConfig(emitter_gain=(1.0,), emitter_pixel=(0,),
                        ambient_dc=(0.0,))
    with pytest.raises(ChannelError):
        receive([], PixelMask(1, {0}), cfg)          # missing block
    with pytest.raises(ChannelError):
        receive(_blocks([1.0]), PixelMask(2, {0, 1}), cfg)  # mask mismatch
    # blocks of unequal length, lit or dark
    bad = _blocks([1.0], [1.0, 1.0])
    cfg2 = ChannelConfig(emitter_gain=(1.0, 1.0), emitter_pixel=(0, 0),
                         ambient_dc=(0.0,))
    for mask in (PixelMask(1, {0}), PixelMask(1)):
        with pytest.raises(ChannelError):
            receive(bad, mask, cfg2)
    with pytest.raises(ChannelError):
        ChannelConfig(emitter_gain=(-1.0,), emitter_pixel=(0,),
                      ambient_dc=(0.0,))
    with pytest.raises(ChannelError):
        ChannelConfig(emitter_gain=(1.0,), emitter_pixel=(0,),
                      ambient_dc=(0.0,), closed_leakage=1.0)
    good = dict(emitter_gain=(1.0, 1.0), emitter_pixel=(0, 1),
                ambient_dc=(0.0, 0.0))
    # an emitter on no pixel of the shutter, a gain count that differs from
    # the emitter-pixel count, and a saturation level that is not positive
    for bad in (dict(emitter_pixel=(0, -1)), dict(emitter_pixel=(0, 2)),
                dict(emitter_pixel=(0,)), dict(emitter_pixel=(0, 0.7)),
                dict(saturation_level=0.0), dict(saturation_level=-1.0)):
        with pytest.raises(ChannelError):
            ChannelConfig(**dict(good, **bad))


def test_snr_variance_ratio():
    rng = np.random.default_rng(0)
    sig = np.sin(np.linspace(0, 200 * np.pi, 20000))
    noise = rng.normal(0, 0.1, 20000)
    snr = received_snr_db(sig, ac_power(noise))
    expected = 10 * np.log10(np.var(sig) / np.var(noise))
    assert snr == pytest.approx(expected, abs=1e-9)
    assert 16 < snr < 18   # ~0.5/0.01 -> 17 dB


def test_snr_sentinels():
    flat = np.ones(100)
    wiggly = np.array([0.0, 1.0] * 50)
    assert received_snr_db(wiggly, ac_power(flat)) == float("inf")
    assert received_snr_db(flat, ac_power(wiggly)) == float("-inf")
    # no signal power is -inf whatever the noise, even none at all
    assert received_snr_db(flat, 0.0) == float("-inf")
    # so is a power ratio that underflows to 0 (1e-300 against 1e200)
    assert received_snr_db(np.array([0.0, 2e-150] * 50), 1e200) == float("-inf")
    empty = np.zeros(0)
    with pytest.raises(ChannelError):
        received_snr_db(empty, ac_power(wiggly))
    with pytest.raises(ChannelError):
        ac_power(empty)


def test_snr_monotone_in_noise_power():
    rng = np.random.default_rng(8)
    sig = rng.normal(0, 1.0, 50000)
    snrs = [received_snr_db(sig, ac_power(rng.normal(0, s, 50000)))
            for s in (0.1, 0.2, 0.4, 0.8)]
    assert snrs == sorted(snrs, reverse=True)


# take sizes for a noise stream: single samples, sizes about the block and
# the whole lookahead, and sizes larger than the lookahead
_BLOCK, _LOOKAHEAD = channel._BLOCK, channel._BLOCK * channel._AHEAD
_TAKE = st.one_of(
    st.just(1), st.integers(0, 3 * _BLOCK),
    st.sampled_from([_BLOCK - 1, _BLOCK, _BLOCK + 1, _LOOKAHEAD,
                     _LOOKAHEAD + 1, 2 * _LOOKAHEAD + 7]))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       takes=st.lists(st.tuples(_TAKE, st.booleans()), min_size=1,
                      max_size=10))
@example(seed=0, takes=[(_BLOCK + 1, True), (3 * _BLOCK - 5, True),
                        (7, False), (_LOOKAHEAD + 1, True)])
def test_noise_stream_is_one_draw_property(seed, takes):
    # a take returns a new array, or fills `out`, here a view into a larger
    # array, as `receive` fills a chunk of its output
    stream = NoiseStream(np.random.default_rng([seed, 31]))
    drawn = []
    for n, into in takes:
        if into:
            room = np.full(n + 2, np.nan)
            view = room[1:-1]
            got = stream.standard_normal(out=view)
            assert got is view
            assert np.isnan(room[[0, -1]]).all()   # nothing written past it
        else:
            got = stream.standard_normal(n)
        drawn.append(got)
    assert [len(t) for t in drawn] == [n for n, _ in takes]
    one_draw = np.random.default_rng([seed, 31]).standard_normal(
        sum(n for n, _ in takes))
    assert np.array_equal(np.concatenate(drawn), one_draw)


class _StandIn:
    """A generator stand-in: numpy's draws, recording the thread of each,
    or an error raised in the thread named `fail_in`."""

    def __init__(self, seed, fail_in=None):
        self.rng, self.fail_in = np.random.default_rng([seed, 31]), fail_in
        self.threads = []

    def standard_normal(self, size=None, out=None):
        thread = threading.current_thread().name
        self.threads.append(thread)
        if thread == self.fail_in:
            raise RuntimeError(f"no noise in {thread}")
        return self.rng.standard_normal(size, out=out)


def _takes_until(stream, done, limit=200):
    """Take 1000 samples at a time until `done()`, at most `limit` times."""
    takes = []
    while not done() and len(takes) < limit:
        takes.append(stream.standard_normal(1000))
    return takes


def test_noise_stream_draws_ahead_on_the_worker_from_the_second_take():
    gen = _StandIn(4)
    stream = NoiseStream(gen)
    first = stream.standard_normal(_LOOKAHEAD)
    assert gen.threads == [threading.current_thread().name]
    takes = _takes_until(stream, lambda: "shuttervlc-noise" in gen.threads)
    assert "shuttervlc-noise" in gen.threads
    got = np.concatenate([first] + takes)
    expected = np.random.default_rng([4, 31]).standard_normal(len(got))
    assert np.array_equal(got, expected)


def test_worker_failure_reaches_the_take():
    # drawn by the caller: the first take
    stream = NoiseStream(_StandIn(5, fail_in=threading.current_thread().name))
    with pytest.raises(RuntimeError, match="no noise in"):
        stream.standard_normal(10)
    # drawn ahead: the take that waits for the failed block raises, and
    # the worker lives on to draw for the next stream
    stream = NoiseStream(_StandIn(5, fail_in="shuttervlc-noise"))
    with pytest.raises(RuntimeError, match="no noise in shuttervlc-noise"):
        _takes_until(stream, lambda: False)
    gen = _StandIn(6)
    stream = NoiseStream(gen)
    takes = _takes_until(stream, lambda: "shuttervlc-noise" in gen.threads)
    assert "shuttervlc-noise" in gen.threads
    assert np.array_equal(np.concatenate(takes), np.random.default_rng(
        [6, 31]).standard_normal(1000 * len(takes)))


def test_gone_streams_draw_nothing_and_live_ones_at_most_the_lookahead():
    class Held(_StandIn):
        """`_StandIn` whose draws on the worker wait until `go` is set."""

        def __init__(self, seed):
            super().__init__(seed)
            self.go = threading.Event()

        def standard_normal(self, size=None, out=None):
            if threading.current_thread().name == "shuttervlc-noise":
                assert self.go.wait(timeout=30)
            return super().standard_normal(size, out=out)

    held, dropped, live = Held(7), _StandIn(8), _StandIn(9)
    stream = NoiseStream(held)
    try:
        stream.standard_normal(10)
        stream.standard_normal(10)      # the worker waits inside held's draw
        gone = NoiseStream(dropped)
        gone.standard_normal(10)
        gone.standard_normal(10)        # its jobs queue behind held's
        del gone
        kept = NoiseStream(live)
        takes = [kept.standard_normal(10), kept.standard_normal(10)]
    finally:
        held.go.set()
    # the caller draws the first two takes; head and lookahead hold the rest
    from_blocks = 0
    for n in (5000, _BLOCK, 3 * _BLOCK + 7, 1, _LOOKAHEAD):
        takes.append(kept.standard_normal(n))
        from_blocks += n
        taken = -(-from_blocks // _BLOCK)
        drawn = live.threads.count("shuttervlc-noise")
        assert taken <= drawn <= taken + channel._AHEAD
        assert kept._filled.qsize() <= kept._in_flight <= channel._AHEAD
    assert live.threads.count(threading.current_thread().name) == 2
    assert dropped.threads == [threading.current_thread().name] * 2
    assert np.array_equal(np.concatenate(takes), np.random.default_rng(
        [9, 31]).standard_normal(sum(map(len, takes))))
    assert np.array_equal(stream.standard_normal(10),
                          np.random.default_rng([7, 31]).standard_normal(30)[20:])


def test_streams_in_many_threads_keep_their_order():
    # more threads than cores, switching often, share the worker and the
    # pool: a block handed to two streams, or drawn out of order, breaks
    # some thread's single draw
    sizes = [1, 5000, _BLOCK + 3, 70_000, 2, _LOOKAHEAD + 1, 40_000] * 3
    results = {}

    def run(seed):
        stream = NoiseStream(np.random.default_rng([seed, 31]))
        results[seed] = np.concatenate([stream.standard_normal(n)
                                        for n in sizes])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(seed,))
                   for seed in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert sorted(results) == list(range(6))
    for seed, got in results.items():
        one_draw = np.random.default_rng([seed, 31]).standard_normal(sum(sizes))
        assert np.array_equal(got, one_draw)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork on this OS")
def test_forked_child_starts_its_own_worker():
    script = textwrap.dedent("""
        import os, signal, sys, threading
        import numpy as np
        from shuttervlc import channel

        assert threading.active_count() == 1    # the import starts no thread

        def draw():
            stream = channel.NoiseStream(np.random.default_rng([3, 31]))
            return np.concatenate([stream.standard_normal(n)
                                   for n in (5000, 70000, 70000, 70000)])

        one_draw = np.random.default_rng([3, 31]).standard_normal(215000)
        assert np.array_equal(draw(), one_draw)     # starts the worker
        pid = os.fork()
        if pid == 0:
            signal.alarm(30)    # a child that hangs ends, and fails the test
            ok = np.array_equal(draw(), one_draw) and "shuttervlc-noise" in [
                t.name for t in threading.enumerate()]
            os._exit(0 if ok else 1)
        sys.exit(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
        """)
    done = _python(script)
    assert done.returncode == 0, done.stderr


def _python(script):
    """Run `script` in a fresh interpreter that imports this checkout's
    shuttervlc."""
    src = str(Path(channel.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", script], env=env,
                          timeout=60, capture_output=True, text=True)


def test_fixed_mask_runs_start_no_noise_worker():
    # every bundled fixed-mask dwell fits in one chunk of `receive`'s
    # output, so its noise is the stream's first take, drawn by the caller
    script = textwrap.dedent("""
        import threading
        from shuttervlc.scenario import (bundled_scenario,
                                         bundled_scenario_names, run_scenario)

        names = [name for name in bundled_scenario_names()
                 if bundled_scenario(name).protocol is None]
        for name in names:
            run_scenario(bundled_scenario(name))
        print(len(names), *(t.name for t in threading.enumerate()))
        """)
    done = _python(script)
    assert done.returncode == 0, done.stderr
    count, *threads = done.stdout.split()
    assert int(count) >= 10 and threads == ["MainThread"]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork on this OS")
def test_forked_child_keeps_the_noise_drawn_ahead():
    # the parent's stream draws on after the fork, and its worker draws
    # fresh blocks: the child's stream still reads the values it held
    script = textwrap.dedent("""
        import os, signal, sys, time
        import numpy as np
        from shuttervlc import channel

        signal.alarm(30)    # a parent or child that hangs fails the test
        blocks, n = channel._AHEAD, channel._BLOCK

        def wait_for_full_lookahead(stream):
            for _ in range(500):
                if stream._filled.qsize() == blocks:
                    return
                time.sleep(0.01)
            sys.exit(4)

        stream = channel.NoiseStream(np.random.default_rng([4, 31]))
        stream.standard_normal(10)
        stream.standard_normal(10)
        wait_for_full_lookahead(stream)
        one_draw = np.random.default_rng([4, 31]).standard_normal(
            20 + (blocks + 1) * n)
        ready, go = os.pipe()
        pid = os.fork()
        if pid == 0:
            signal.alarm(30)
            os.read(ready, 1)
            # the blocks drawn ahead, then the child's own draws
            got = np.concatenate([stream.standard_normal(blocks * n - 1),
                                  stream.standard_normal(n + 1)])
            os._exit(0 if np.array_equal(got, one_draw[20:]) else 3)
        stream.standard_normal(blocks * n)  # the parent reads the blocks
        wait_for_full_lookahead(stream)     # and the worker draws more
        os.write(go, b"x")
        sys.exit(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
        """)
    done = _python(script)
    assert done.returncode == 0, done.stderr


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork on this OS")
def test_forked_child_refuses_noise_still_in_flight():
    # no thread in the child will fill the blocks the parent's worker was
    # asked for: waiting for them would hang
    script = textwrap.dedent("""
        import os, signal, sys, threading
        import numpy as np
        from shuttervlc import channel

        signal.alarm(30)    # a parent or child that hangs fails the test

        class Held:
            "numpy's draws; the worker's wait until `go` is set"
            def __init__(self):
                self.rng = np.random.default_rng([4, 31])
                self.go = threading.Event()

            def standard_normal(self, size=None, out=None):
                if threading.current_thread().name == "shuttervlc-noise":
                    self.go.wait()
                return self.rng.standard_normal(size, out=out)

        gen = Held()
        stream = channel.NoiseStream(gen)
        stream.standard_normal(10)
        stream.standard_normal(10)      # the lookahead is in flight, held
        pid = os.fork()
        if pid == 0:
            signal.alarm(30)
            try:
                stream.standard_normal(10)
            except channel.ChannelError:
                os._exit(0)
            os._exit(1)
        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        gen.go.set()
        got = stream.standard_normal(10)    # the parent's stream goes on
        one_draw = np.random.default_rng([4, 31]).standard_normal(30)
        sys.exit(status or 3 * (not np.array_equal(got, one_draw[20:])))
        """)
    done = _python(script)
    assert done.returncode == 0, done.stderr
