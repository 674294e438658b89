"""Shutter-gated single-photodiode channel."""

import itertools

import numpy as np
import pytest

from shuttervlc.channel import (ChannelConfig, ChannelError, PixelMask,
                                ac_power, receive, received_snr_db)


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
    # without ambient light and noise, on blocks of 0, 1 and odd lengths;
    # saturation and the floor at 0 both clip
    data = np.random.default_rng(23)
    for opened, leak, ambient, sigma, n in itertools.product(
            [(), (0,), (0, 1)], [0.0, 0.05], [(0.0,) * 3, (0.3, 0.0, 0.7)],
            [0.0, 0.05], [0, 1, 7, 1001]):
        cfg = ChannelConfig(emitter_gain=(0.9, 1.3), emitter_pixel=(0, 1),
                            ambient_dc=ambient, noise_sigma=sigma,
                            closed_leakage=leak, saturation_level=1.6)
        blocks = _blocks(*data.uniform(0.0, 1.2, (2, n)))
        before = [b.copy() for b in blocks]
        mask = PixelMask(3, opened)
        rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
        got = receive(blocks, mask, cfg, rng=rng)
        expected = _reference_receive(blocks, mask, cfg, ref_rng)
        assert got.tobytes() == expected.tobytes()
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
