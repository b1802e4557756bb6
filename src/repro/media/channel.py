"""The analog read channel.

Section 3.2 enumerates the noise processes the ML decoder must cope with:
"inter-symbol interference between adjacent voxels in the glass, scattered
light from neighbouring layers during readout, variability between optical
components, and more", plus "stochastic read sensor noise" (Section 5) which
causes the typical read-time errors.

:class:`ReadChannel` turns a sector's pristine symbols into noisy 2D
birefringence observations:

* AWGN sensor noise on each observation component;
* inter-symbol interference: each voxel's observation leaks a fraction of
  its neighbours' ideal observations;
* layer crosstalk: scattered light from the layers above/below adds a
  fraction of a decorrelated signal;
* optical variability: a per-read random gain/offset;
* rare write-time voxel dropouts (missing voxels write as zero retardance).

The channel images a whole stack of sectors per call: :meth:`ReadChannel.observe`
takes ``(passes, n)`` symbols as well as one sector's ``(n,)``, and
:meth:`ReadChannel.symbol_posteriors` demodulates any ``(..., 2)`` stack.
One sector is the batch of one. Each imaging pass still draws its noise in
the order a lone pass would (one uniform block for dropouts, then one
normal block split into crosstalk, gain, offset and sensor noise), so a
stack of passes leaves exactly the observations and generator state of the
same passes made one at a time. A caller that must re-image part of a
stack rewinds with :meth:`ReadChannel.checkpoint` and
:meth:`ReadChannel.rewind` instead of touching the generator.

It can also short-circuit the physics and produce symbol *posteriors*
directly via an analytically equivalent discrete channel — this is the fast
path the discrete event simulator uses, while the full path exercises the
decode stack end to end.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Optional, Tuple

import numpy as np

from .voxel import VoxelConstellation


@dataclass(frozen=True)
class ChannelModel:
    """Noise parameters of the write+read pipeline.

    Defaults are tuned so the end-to-end sector failure probability after
    LDPC sits near the paper's observed 1e-3 (Section 6).
    """

    sensor_noise_sigma: float = 0.18
    isi_fraction: float = 0.06
    layer_crosstalk_sigma: float = 0.05
    gain_sigma: float = 0.02
    offset_sigma: float = 0.01
    voxel_dropout_probability: float = 1e-5  # write-time errors are rare (§5)

    def __post_init__(self) -> None:
        if self.sensor_noise_sigma < 0 or not 0 <= self.isi_fraction < 1:
            raise ValueError("invalid channel parameters")


class ReadChannel:
    """Simulates imaging a sector through polarization microscopy."""

    def __init__(
        self,
        model: Optional[ChannelModel] = None,
        constellation: Optional[VoxelConstellation] = None,
        seed: int = 0,
    ):
        self.model = model or ChannelModel()
        self.constellation = constellation or VoxelConstellation()
        self._rng = np.random.default_rng(seed)

    def _draw(
        self, rng: np.random.Generator, passes: int, n: int
    ) -> Tuple[Optional[np.ndarray], np.ndarray]:
        """Every random draw of ``passes`` imaging passes over ``n`` voxels.

        Per pass, in order: ``n`` uniforms for the dropout test (when
        dropouts are on), then one standard-normal block of
        ``[2n crosstalk (when on)] + 1 gain + 2 offset + 2n sensor``.
        ``Generator.normal(0, s)`` is ``0 + s * standard_normal()`` on the
        same stream, so scaling the blocks reproduces per-draw calls.
        Returns the (passes, n) dropout mask (None when dropouts are off)
        and the (passes, width) normal blocks.
        """
        model = self.model
        width = (4 * n if model.layer_crosstalk_sigma > 0 else 2 * n) + 3
        dropped = uniforms = None
        if model.voxel_dropout_probability > 0:
            dropped = np.empty((passes, n), dtype=bool)
            uniforms = np.empty(n)
        normals = np.empty((passes, width))
        for p in range(passes):
            if dropped is not None:
                rng.random(out=uniforms)
                np.less(uniforms, model.voxel_dropout_probability, out=dropped[p])
            rng.standard_normal(out=normals[p])
        return dropped, normals

    def observe(self, symbols: np.ndarray, rng: Optional[np.random.Generator] = None) -> np.ndarray:
        """Noisy (cos 2θ, sin 2θ) observations of one or more imaging passes.

        ``symbols`` is one sector's ``(n,)`` symbols, giving ``(n, 2)``, or
        a ``(passes, n)`` stack imaged pass after pass, giving
        ``(passes, n, 2)``. Voxels are treated as a linear raster for ISI
        purposes (adjacent indices are physically adjacent within a layer).
        """
        rng = rng or self._rng
        model = self.model
        symbols = np.asarray(symbols, dtype=np.uint8)
        stack = symbols.reshape(1, -1) if symbols.ndim == 1 else symbols
        passes, n = stack.shape
        dropped, normals = self._draw(rng, passes, n)
        # The ideal points become the observations in place once the ISI
        # term has read the neighbours' ideal (not dropped) values.
        observed = self.constellation.ideal_observations(stack)  # (passes, n, 2)
        isi = model.isi_fraction > 0 and n > 1
        if isi:
            neighbours = np.empty_like(observed)
            neighbours[:, 0] = 0.0
            neighbours[:, 1:] = observed[:, :-1]
            neighbours[:, :-1] += observed[:, 1:]
        # Write-time dropouts: the voxel was never created, so it reads as
        # (retardance ~ 0) regardless of intended symbol.
        if dropped is not None:
            observed[dropped] = 0.0
        # Inter-symbol interference from raster neighbours.
        if isi:
            observed *= 1 - model.isi_fraction
            neighbours *= model.isi_fraction / 2
            observed += neighbours
        at = 0
        # Scattered light from neighbouring layers: decorrelated additive term.
        if model.layer_crosstalk_sigma > 0:
            crosstalk = normals[:, : 2 * n]
            crosstalk *= model.layer_crosstalk_sigma
            observed += crosstalk.reshape(passes, n, 2)
            at = 2 * n
        # Optical component variability: one gain/offset per imaging pass.
        gain = 1.0 + model.gain_sigma * normals[:, at]
        offset = model.offset_sigma * normals[:, at + 1 : at + 3]
        observed *= gain[:, None, None]
        observed += offset[:, None, :]
        # Sensor noise.
        sensor = normals[:, at + 3 :]
        sensor *= model.sensor_noise_sigma
        observed += sensor.reshape(passes, n, 2)
        return observed[0] if symbols.ndim == 1 else observed

    def checkpoint(self) -> dict:
        """The channel generator's state, for a later :meth:`rewind`."""
        return self._rng.bit_generator.state

    def rewind(self, checkpoint: dict, passes: int, voxels: int) -> None:
        """Restore ``checkpoint``, then redraw ``passes`` passes of ``voxels``.

        Leaves the generator where ``passes`` calls of :meth:`observe` on
        ``voxels``-voxel sectors would have left it from the checkpoint,
        without imaging anything.
        """
        self._rng.bit_generator.state = checkpoint
        self._draw(self._rng, passes, voxels)

    def symbol_posteriors(
        self, observations: np.ndarray, noise_sigma: Optional[float] = None
    ) -> np.ndarray:
        """Gaussian-likelihood posteriors over symbols for each observation.

        This is the "traditional signal processing" baseline decoder the
        paper contrasts with the ML stack: it assumes isotropic Gaussian
        noise and ignores ISI/crosstalk structure, which is exactly why the
        learned decoder beats it (Section 3.2).

        ``observations`` is ``(..., 2)`` (a single ``(2,)`` observation is
        read as ``(1, 2)``); the result is ``(..., S)``. The work runs one
        ``(N,)`` column per symbol. At ``noise_sigma`` 0 the posterior is
        its σ→0 limit: all mass on the nearest symbol, split evenly on ties.
        """
        sigma = noise_sigma if noise_sigma is not None else self.model.sensor_noise_sigma
        if sigma < 0:
            raise ValueError(f"noise_sigma must be >= 0, got {sigma}")
        observations = np.atleast_2d(np.asarray(observations, dtype=np.float64))
        x, y = observations[..., 0], observations[..., 1]
        d2 = []
        for ideal_x, ideal_y in self.constellation.points:
            dx = x - ideal_x
            dy = y - ideal_y
            dx *= dx
            dy *= dy
            dx += dy
            d2.append(dx)
        if sigma == 0:
            nearest = reduce(np.minimum, d2)
            weights = [(d == nearest).astype(np.float64) for d in d2]
        else:
            scale = 2 * sigma**2
            for d in d2:  # log-likelihoods, in place: -d2 / (2σ²)
                np.negative(d, out=d)
                d /= scale
            top = reduce(np.maximum, d2)
            weights = d2
            for w in weights:
                w -= top
                np.exp(w, out=w)
        total = reduce(np.add, weights)
        posterior = np.empty(observations.shape[:-1] + (len(weights),))
        for s, w in enumerate(weights):
            np.divide(w, total, out=posterior[..., s])
        return posterior

    def symbol_error_rate(self, num_voxels: int = 50_000, rng_seed: int = 123) -> float:
        """Monte-Carlo raw (pre-LDPC) symbol error rate of this channel."""
        rng = np.random.default_rng(rng_seed)
        symbols = rng.integers(
            0, self.constellation.num_symbols, num_voxels
        ).astype(np.uint8)
        obs = self.observe(symbols, rng=rng)
        decided = self.constellation.nearest_symbol(obs)
        return float((decided != symbols).mean())
