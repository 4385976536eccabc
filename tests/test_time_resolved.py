"""The paper's time-resolved claim, on a source with a known time dependence.

Two sources share one laser clock: A emits the model amplitude, B the same
amplitude with its signal band rolled 40 cells, and B's pairs arrive Δ
later after each pulse (`mcp_delay_ps` shifts its MCP and SNSPD tags
together, so τ is kept). B's sync markers, which equal A's, are dropped and
the two streams merged by (tick, channel). A frame of `slice` then holds
A's and B's pairs in the ratio that their response functions give for the
frame's window. Each frame's cell counts are fit as a mixture of the two
pure-state joint spectra, and the fitted share of B must be the one that
the two pure-state builds' measured response functions predict.
"""

from dataclasses import replace

import numpy as np
import pytest

from biphoton import engine, simgen, spdc
from biphoton.config import RunConfig
from biphoton.tagstream import TagColumns

SEED_A, SEED_B = 11, 12
TICK_PS = simgen.AcquisitionConfig().tick_ps
DELAYS_PS = (150, 500)
#: frames with fewer coincidences are not compared
MIN_FRAME = 100


def stream(jsa, acq, seed):
    return TagColumns.concatenate(simgen.generate(jsa, acq, seed).chunks)


@pytest.fixture(scope="module")
def two_sources(model_jsa):
    """The event build, and per Δ: the pure-state builds of A and B and the
    coincidences of their merged stream, 2 s each."""
    acq = simgen.AcquisitionConfig(duration_s=2.0)
    ecfg = RunConfig(acquisition=acq).event_config()
    cmap = acq.channel_map
    jsa_b = spdc.JsaGrid(model_jsa.signal_omega, model_jsa.idler_omega,
                         np.roll(model_jsa.amplitude, 40, axis=0)).normalize()
    a = stream(model_jsa, acq, SEED_A)
    pure_a = engine.build(a, cmap, ecfg)
    runs = {}
    for delay in DELAYS_PS:
        b = stream(jsa_b, replace(acq, mcp_delay_ps=acq.mcp_delay_ps + delay), SEED_B)
        merged = TagColumns.concatenate([a, b[b.channel != cmap.sync]])
        merged = merged[np.lexsort((merged.channel, merged.timestamp))]
        runs[delay] = (pure_a, engine.build(b, cmap, ecfg),
                       engine.build(merged, cmap, ecfg).coincidences)
    return ecfg, runs


def pair_response(build):
    """The folded sync offsets of a build's pair triggers, one bin a tick:
    its `irf` histogram less the flat floor of dark-count triggers, taken
    as the histogram's mean more than 2 ns from its peak. Also returns the
    raw counts and the variance of the floor estimate: a window's sum of
    the response has the variance of its raw counts plus, once per bin,
    that of the floor it subtracts."""
    counts = build.histograms["irf"].counts.astype(float)
    far = np.abs(np.arange(len(counts)) - np.argmax(counts)) * TICK_PS > 2000
    floor = counts[far].mean()
    return np.clip(counts - floor, 0, None), counts, floor / far.sum()


def fit_share(counts, a, b):
    """The Poisson maximum-likelihood share s of B in cell counts drawn
    from the mixture (1 - s) a + s b of the normalized spectra a and b, and
    its standard error from the observed information. Cells that neither
    spectrum holds are left out. The score falls with s, so it is bisected;
    50 halvings keep s inside (0, 1), where every kept cell's mixture is
    positive."""
    keep = a + b > 0
    n, a, b = counts[keep], a[keep], b[keep]
    lo, hi = 0.0, 1.0
    for _ in range(50):
        s = (lo + hi) / 2
        if np.sum(n * (b - a) / ((1 - s) * a + s * b)) > 0:
            lo = s
        else:
            hi = s
    hit = n > 0
    slope = (b - a)[hit] / ((1 - s) * a + s * b)[hit]
    return s, np.sum(n[hit] * slope**2) ** -0.5


def frame_shares(ecfg, pure_a, pure_b, coincidences, width_ps, assumed_shift_ps=0):
    """Slice the merged coincidences into frames of `width_ps` from 400 ps
    before A's response peak to 400 ps after B's, and for each frame with
    at least MIN_FRAME coincidences return B's fitted share and the pull
    (fitted - predicted) / σ. The prediction weighs each source's
    coincidence count by the share of its pair response in the frame's
    window; B's response is moved by `assumed_shift_ps`, to test a wrong Δ.
    σ adds the fit's error and the error the two response sums give the
    prediction in quadrature. That error is propagated from each sum's
    variance (`pair_response`), so it holds where a sum is near 0 and the
    predicted share near 0 or 1."""
    width = width_ps // TICK_PS
    resp_a, raw_a, floor_var_a = pair_response(pure_a)
    resp_b, raw_b, floor_var_b = pair_response(pure_b)
    shift = assumed_shift_ps // TICK_PS
    resp_b, raw_b = np.roll(resp_b, shift), np.roll(raw_b, shift)
    origin = int(np.argmax(resp_a)) - 400 // TICK_PS
    span = int(np.argmax(resp_b)) + 400 // TICK_PS - origin
    frames, _ = engine.slice_time_resolved(coincidences, ecfg, width, origin,
                                           span // width + 1)
    spectra = [build.histograms["jsi"].counts.ravel() / build.histograms["jsi"].counts.sum()
               for build in (pure_a, pure_b)]
    scale_a = len(pure_a.coincidences) / resp_a.sum()
    scale_b = len(pure_b.coincidences) / resp_b.sum()
    shares, pulls = [], []
    for k, frame in enumerate(frames):
        counts = frame.counts.ravel().astype(float)
        if counts.sum() < MIN_FRAME:
            continue
        share, error = fit_share(counts, *spectra)
        window = slice(origin + k * width, origin + (k + 1) * width)
        rate_a, rate_b = scale_a * resp_a[window].sum(), scale_b * resp_b[window].sum()
        sd_a = np.sqrt(raw_a[window].sum() + width**2 * floor_var_a)
        sd_b = np.sqrt(raw_b[window].sum() + width**2 * floor_var_b)
        predicted = rate_b / (rate_a + rate_b)
        # d predicted / d sum_a = -scale_a rate_b / (rate_a + rate_b)^2, and
        # for B the same with a and b swapped
        predicted_error = np.hypot(scale_a * rate_b * sd_a,
                                   scale_b * rate_a * sd_b) / (rate_a + rate_b)**2
        shares.append(share)
        pulls.append((share - predicted) / np.hypot(error, predicted_error))
    return np.array(shares), np.array(pulls)


@pytest.mark.parametrize("width_ps", [25, 150, 400])
@pytest.mark.parametrize("delay_ps", DELAYS_PS)
def test_frames_hold_the_predicted_mixture(two_sources, delay_ps, width_ps):
    ecfg, runs = two_sources
    shares, pulls = frame_shares(ecfg, *runs[delay_ps], width_ps)
    assert len(pulls) >= 3
    assert np.abs(pulls).max() < 3, pulls
    if width_ps <= delay_ps:
        # frames no wider than the delay tell the two sources apart
        assert shares.min() < 0.1 and shares.max() > 0.9, shares


@pytest.mark.parametrize("wrong_ps", [0, 300])
def test_wrong_delay_is_rejected(two_sources, wrong_ps):
    ecfg, runs = two_sources
    _, pulls = frame_shares(ecfg, *runs[150], 150, assumed_shift_ps=wrong_ps - 150)
    assert np.abs(pulls).max() > 3, pulls
