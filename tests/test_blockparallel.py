"""Serving many frames: the frame cache and ``execute_many``.

Every pixel path runs one truncated-pyramid block at a time; pixel parity
of the block flow against ``frame_based_inference`` lives in
``tests/test_parity.py``.  The contract under test here is the serving
layer above it: a batch of frames returns exactly what per-frame
``execute`` returns, repeats are answered from the bounded frame cache,
duplicates inside a batch are computed once, and recognition (which has
no pixel path) is rejected.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.workloads import synthetic_image
from repro.api import Session
from repro.runtime.cache import ResultCache
from repro.runtime.engine import ServingEngine

#: The two functionally-executing backend families.
PIXEL_BACKENDS = ("ecnn", "frame_based")

#: One block-aligned and one non-divisible denoise frame size.
DENOISE_SIZES = ((40, 40), (35, 27))


class TestServingParity:
    @pytest.mark.parametrize("backend", PIXEL_BACKENDS)
    def test_execute_many_matches_per_frame(self, backend):
        session = Session(backend=backend, cache=ResultCache())
        images = [
            synthetic_image(*DENOISE_SIZES[0], seed=seed) for seed in range(3)
        ] + [synthetic_image(*DENOISE_SIZES[1], seed=9)]
        batch = session.execute_many("denoise", images, cached=False)
        for image, result in zip(images, batch):
            single = session.execute("denoise", image, cached=False)
            assert np.array_equal(result.output.data, single.output.data)

    def test_frame_cache_serves_repeats(self):
        session = Session(backend="ecnn", cache=ResultCache())
        image = synthetic_image(40, 40, seed=29)
        first = session.execute("denoise", image)
        assert session.frame_cache.stats.misses == 1
        second = session.execute("denoise", image)
        assert session.frame_cache.stats.hits == 1
        assert second is first
        # Different pixels, different entry.
        other = session.execute("denoise", synthetic_image(40, 40, seed=30))
        assert not np.array_equal(other.output.data, first.output.data)
        assert session.frame_cache.stats.misses == 2

    def test_execute_many_dedupes_repeated_frames(self):
        session = Session(backend="ecnn", cache=ResultCache())
        image = synthetic_image(40, 40, seed=31)
        results = session.execute_many("denoise", [image, image, image])
        # One compute fans out to every duplicate in the batch.
        assert session.frame_cache.stats.misses == 1
        assert results[1] is results[0] and results[2] is results[0]
        reference = session.execute("denoise", image, cached=False)
        assert np.array_equal(results[0].output.data, reference.output.data)

    def test_execute_many_mixes_cache_hits_and_batch(self):
        session = Session(backend="ecnn", cache=ResultCache())
        images = [synthetic_image(40, 40, seed=seed) for seed in range(4)]
        session.execute("denoise", images[1])  # pre-populate one entry
        results = session.execute_many("denoise", images)
        for image, result in zip(images, results):
            reference = session.execute("denoise", image, cached=False)
            assert np.array_equal(result.output.data, reference.output.data)
        assert session.frame_cache.stats.hits >= 1

    def test_engine_execute_frames(self):
        engine = ServingEngine(backend="ecnn", cache=ResultCache())
        images = [synthetic_image(35, 27, seed=seed) for seed in (1, 2)]
        batch = engine.session.execute_many("denoise", images, cached=False)
        for image, result in zip(images, batch):
            single = engine.session.execute("denoise", image, cached=False)
            assert np.array_equal(result.output.data, single.output.data)

    def test_recognition_still_has_no_pixel_path(self):
        session = Session(backend="ecnn", cache=ResultCache())
        with pytest.raises(ValueError):
            session.execute_many("recognition", [synthetic_image(32, 32, seed=1)])
