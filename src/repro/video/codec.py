"""A functional macroblock-based video codec.

This is a real (if deliberately simple) transform codec in the
H.264/HEVC family shape the paper describes in Sec. 2.4: frames are
split into 16x16 macroblocks; each macroblock passes through a DCT,
quantization, zigzag + run-length coding, and Exp-Golomb entropy coding.
I-type macroblocks are coded independently; P-type macroblocks carry a
motion vector into the previous reconstructed frame plus a coded
residual; B-type macroblocks bi-predict from the previous and next
references.

The codec exists so the datapath — buffering encoded bytes, decoding at
macroblock granularity, writing reconstructed frames — is exercised
end-to-end with real data.  Energy experiments at 4K/5K use the
analytic content model instead (see ``repro.video.source``), because
what the power model needs from the codec is only frame *sizes* and
*timing*.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import CodecError, ConfigurationError
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from .bitstream import BitReader, BitWriter
from .frames import (
    DecodedFrame,
    EncodedFrame,
    FrameType,
    GopStructure,
    MACROBLOCK_SIZE,
)

#: Magic number opening every encoded frame ("BL" for BurstLink).
_MAGIC = 0xB1
#: Motion search radius in pixels.
_SEARCH_RADIUS = 8


def zigzag_order(size: int) -> np.ndarray:
    """Indices that traverse a ``size x size`` block in zigzag order,
    low frequencies first (as flat indices into the row-major block)."""
    if size <= 0:
        raise ConfigurationError(f"block size must be positive, got {size}")
    coords = sorted(
        ((r, c) for r in range(size) for c in range(size)),
        key=lambda rc: (rc[0] + rc[1], rc[1] if (rc[0] + rc[1]) % 2 else
                        rc[0]),
    )
    return np.array([r * size + c for r, c in coords], dtype=np.int64)


@dataclass(frozen=True)
class CodecConfig:
    """Codec parameters."""

    #: Quantization step; larger means smaller streams and lower quality.
    qstep: float = 12.0
    gop: GopStructure = field(default_factory=GopStructure)

    def __post_init__(self) -> None:
        if self.qstep <= 0:
            raise ConfigurationError("qstep must be positive")


class Codec:
    """Encoder/decoder pair sharing one configuration.

    Both sides maintain the *reconstructed* reference frame (not the
    source), so encoder and decoder predictions never drift apart.
    """

    def __init__(self, config: CodecConfig | None = None) -> None:
        self.config = config or CodecConfig()
        self._zigzag = zigzag_order(MACROBLOCK_SIZE)
        self._unzigzag = np.argsort(self._zigzag)

    # ------------------------------------------------------------------
    # Block-level transform coding
    # ------------------------------------------------------------------

    def _code_residual(
        self, writer: BitWriter, residual: np.ndarray
    ) -> np.ndarray:
        """Transform-code one 16x16x3 residual macroblock (all three
        channels through a single stacked DCT) and return the
        decoder-side reconstruction of the residual (float64).

        Producing the reconstruction here — from the very coefficients
        just entropy-coded — replaces the seed's separate per-channel
        re-quantization pass, so each macroblock costs one forward and
        one inverse transform instead of nine single-channel calls.
        """
        from scipy.fft import dctn, idctn  # deferred: slow to import

        coefficients = dctn(residual, axes=(0, 1), norm="ortho")
        quantized = np.round(coefficients / self.config.qstep)
        for channel in range(3):
            self._write_scan(
                writer,
                quantized[..., channel].reshape(-1)[self._zigzag],
            )
        return idctn(
            quantized * self.config.qstep, axes=(0, 1), norm="ortho"
        )

    def _write_scan(self, writer: BitWriter, scan: np.ndarray) -> None:
        """Run-length + Exp-Golomb code one channel's zigzag scan.

        The (run, level) stream is derived with numpy (no per-position
        Python loop) and every pair's Exp-Golomb bits are folded into a
        single big integer appended with one ``write_bits`` call.
        """
        nonzero = np.flatnonzero(scan)
        writer.write_ue(len(nonzero))
        if not len(nonzero):
            return
        runs = np.diff(nonzero, prepend=-1) - 1
        levels = scan[nonzero]
        mapped = np.where(levels > 0, 2 * levels - 1, -2 * levels)
        accumulator = 0
        bits = 0
        for run, level in zip(runs.tolist(), mapped.tolist()):
            run_code = int(run) + 1
            level_code = int(level) + 1
            run_width = 2 * run_code.bit_length() - 1
            level_width = 2 * level_code.bit_length() - 1
            accumulator = (
                ((accumulator << run_width) | run_code) << level_width
            ) | level_code
            bits += run_width + level_width
        writer.write_bits(accumulator, bits)

    def _read_scan(self, reader: BitReader) -> np.ndarray:
        """Read one channel's zigzag scan of quantized coefficients."""
        count = reader.read_ue()
        size = MACROBLOCK_SIZE * MACROBLOCK_SIZE
        scan = np.zeros(size, dtype=np.float64)
        position = -1
        for _ in range(count):
            position += reader.read_ue() + 1
            if position >= size:
                raise CodecError("run-length past end of block")
            scan[position] = reader.read_se()
        return scan

    def _decode_residual(self, reader: BitReader) -> np.ndarray:
        """Inverse of :meth:`_code_residual`: read three channel scans
        and inverse-transform them in one stacked IDCT; returns the
        float64 16x16x3 residual."""
        size = MACROBLOCK_SIZE
        quantized = np.empty((size, size, 3), dtype=np.float64)
        flat = np.zeros(size * size, dtype=np.float64)
        for channel in range(3):
            flat[self._zigzag] = self._read_scan(reader)
            quantized[..., channel] = flat.reshape(size, size)
        from scipy.fft import idctn  # deferred: slow to import

        return idctn(
            quantized * self.config.qstep, axes=(0, 1), norm="ortho"
        )

    # ------------------------------------------------------------------
    # Motion estimation / compensation
    # ------------------------------------------------------------------

    @staticmethod
    def _luma(frame: np.ndarray) -> np.ndarray:
        """A quick luma proxy (channel mean) for motion search."""
        return frame.mean(axis=2)

    def _estimate_motion(self, target_luma: np.ndarray,
                         reference_luma: np.ndarray,
                         top: int, left: int) -> tuple[int, int]:
        """Three-step search for the motion vector minimising SAD of the
        16x16 block at (top, left).  Returns (dy, dx)."""
        size = MACROBLOCK_SIZE
        height, width = reference_luma.shape
        block = target_luma[top:top + size, left:left + size]
        best = (0, 0)
        best_sad = None
        step = _SEARCH_RADIUS // 2
        center = (0, 0)
        while step >= 1:
            for dy in (-step, 0, step):
                for dx in (-step, 0, step):
                    candidate = (center[0] + dy, center[1] + dx)
                    ref_top = top + candidate[0]
                    ref_left = left + candidate[1]
                    if not (0 <= ref_top <= height - size
                            and 0 <= ref_left <= width - size):
                        continue
                    ref_block = reference_luma[
                        ref_top:ref_top + size, ref_left:ref_left + size
                    ]
                    sad = float(np.abs(block - ref_block).sum())
                    if best_sad is None or sad < best_sad:
                        best_sad = sad
                        best = candidate
            center = best
            step //= 2
        return best

    @staticmethod
    def _reference_block(reference: np.ndarray, top: int, left: int,
                         motion: tuple[int, int]) -> np.ndarray:
        """The 16x16x3 predictor block at (top, left) displaced by
        ``motion`` in ``reference``."""
        size = MACROBLOCK_SIZE
        ref_top = top + motion[0]
        ref_left = left + motion[1]
        height, width = reference.shape[:2]
        if not (0 <= ref_top <= height - size
                and 0 <= ref_left <= width - size):
            raise CodecError(
                f"motion vector {motion} leaves the reference frame"
            )
        return reference[
            ref_top:ref_top + size, ref_left:ref_left + size
        ].astype(np.float64)

    # ------------------------------------------------------------------
    # Frame-level encode
    # ------------------------------------------------------------------

    def encode_frame(
        self,
        index: int,
        frame: np.ndarray,
        frame_type: FrameType,
        past: np.ndarray | None = None,
        future: np.ndarray | None = None,
    ) -> tuple[EncodedFrame, np.ndarray]:
        """Encode one frame; returns the bitstream and the *reconstructed*
        frame (the decoder-side pixels, to be used as the next
        reference)."""
        self._validate_frame(frame)
        if frame_type.needs_past_reference and past is None:
            raise CodecError(f"{frame_type.value} frame needs a past "
                             "reference")
        if frame_type.needs_future_reference and future is None:
            raise CodecError("B frame needs a future reference")

        height, width = frame.shape[:2]
        tracer = obs_trace.active()
        frame_span = None
        if tracer is not None:
            frame_span = tracer.begin_span(
                "codec.encode",
                index=index,
                type=frame_type.value,
                width=width,
                height=height,
            )
            tracer.event("codec.phase", phase="header")
        writer = BitWriter()
        writer.write_bits(_MAGIC, 8)
        writer.write_bits({"I": 0, "P": 1, "B": 2}[frame_type.value], 2)
        writer.write_bits(width, 16)
        writer.write_bits(height, 16)
        writer.write_bits(index & 0xFFFF, 16)

        if tracer is not None:
            tracer.event("codec.phase", phase="macroblocks")
        reconstructed = np.empty_like(frame)
        past_luma = self._luma(past) if past is not None else None
        future_luma = self._luma(future) if future is not None else None
        target_luma = self._luma(frame)
        size = MACROBLOCK_SIZE
        for top in range(0, height, size):
            for left in range(0, width, size):
                original = frame[top:top + size, left:left + size].astype(
                    np.float64
                )
                predictor = self._encode_prediction(
                    writer, frame_type, target_luma, past, past_luma,
                    future, future_luma, top, left, reconstructed,
                    original,
                )
                # Code the residual and reconstruct through the same
                # quantization the decoder applies, so encoder and
                # decoder references never drift.
                recon = (
                    self._code_residual(writer, original - predictor)
                    + predictor
                )
                reconstructed[top:top + size, left:left + size] = np.clip(
                    np.round(recon), 0, 255
                ).astype(np.uint8)

        encoded = EncodedFrame(
            index=index,
            frame_type=frame_type,
            width=width,
            height=height,
            payload=writer.getvalue(),
        )
        macroblocks = (height // size) * (width // size)
        registry = obs_metrics.registry()
        registry.counter(
            "codec.frames_encoded", "frames pushed through the encoder"
        ).inc()
        registry.counter(
            "codec.macroblocks_encoded", "macroblocks transform-coded"
        ).inc(macroblocks)
        registry.histogram(
            "codec.encoded_bytes", "encoded payload size per frame"
        ).observe(len(encoded.payload))
        if tracer is not None:
            assert frame_span is not None
            tracer.end_span(
                frame_span,
                macroblocks=macroblocks,
                payload_bytes=len(encoded.payload),
            )
        return encoded, reconstructed

    # Intra 16x16 prediction modes: flat mid-grey, horizontal (extend
    # the left neighbour's edge), vertical (extend the top neighbour's
    # edge) — the H.264 intra-16x16 family.
    _INTRA_MODES = 3

    def _intra_candidates(
        self, reconstruction: np.ndarray, top: int, left: int
    ) -> list[np.ndarray]:
        """The intra predictor candidates available at (top, left),
        built only from already-reconstructed neighbours (so encoder
        and decoder agree)."""
        size = MACROBLOCK_SIZE
        candidates = [np.full((size, size, 3), 128.0)]
        if left >= size:
            edge = reconstruction[
                top:top + size, left - 1:left
            ].astype(np.float64)
            candidates.append(np.repeat(edge, size, axis=1))
        else:
            candidates.append(None)  # type: ignore[arg-type]
        if top >= size:
            edge = reconstruction[
                top - 1:top, left:left + size
            ].astype(np.float64)
            candidates.append(np.repeat(edge, size, axis=0))
        else:
            candidates.append(None)  # type: ignore[arg-type]
        return candidates

    def _encode_prediction(
        self,
        writer: BitWriter,
        frame_type: FrameType,
        target_luma: np.ndarray,
        past: np.ndarray | None,
        past_luma: np.ndarray | None,
        future: np.ndarray | None,
        future_luma: np.ndarray | None,
        top: int,
        left: int,
        reconstruction: np.ndarray,
        original: np.ndarray,
    ) -> np.ndarray:
        """Write the prediction side-information for one macroblock and
        return the predictor block (float64, 16x16x3)."""
        if frame_type is FrameType.I:
            candidates = self._intra_candidates(
                reconstruction, top, left
            )
            best_mode, best_predictor, best_sad = 0, candidates[0], None
            for mode, candidate in enumerate(candidates):
                if candidate is None:
                    continue
                sad = float(np.abs(original - candidate).sum())
                if best_sad is None or sad < best_sad:
                    best_mode, best_predictor, best_sad = (
                        mode, candidate, sad
                    )
            writer.write_bits(best_mode, 2)
            return best_predictor
        assert past is not None and past_luma is not None
        motion = self._estimate_motion(target_luma, past_luma, top, left)
        writer.write_se(motion[0])
        writer.write_se(motion[1])
        predictor = self._reference_block(past, top, left, motion)
        if frame_type is FrameType.B:
            assert future is not None and future_luma is not None
            motion_b = self._estimate_motion(
                target_luma, future_luma, top, left
            )
            writer.write_se(motion_b[0])
            writer.write_se(motion_b[1])
            predictor = (
                predictor
                + self._reference_block(future, top, left, motion_b)
            ) / 2.0
        return predictor

    # ------------------------------------------------------------------
    # Frame-level decode
    # ------------------------------------------------------------------

    def decode_frame(
        self,
        encoded: EncodedFrame,
        past: np.ndarray | None = None,
        future: np.ndarray | None = None,
    ) -> DecodedFrame:
        """Decode one frame from its bitstream."""
        tracer = obs_trace.active()
        frame_span = None
        if tracer is not None:
            frame_span = tracer.begin_span(
                "codec.decode",
                index=encoded.index,
                type=encoded.frame_type.value,
                payload_bytes=len(encoded.payload),
            )
            tracer.event("codec.phase", phase="header")
        try:
            reader = BitReader(encoded.payload)
            if reader.read_bits(8) != _MAGIC:
                raise CodecError("bad magic: not a BurstLink codec stream")
            type_code = reader.read_bits(2)
            if type_code > 2:
                raise CodecError(f"unknown frame-type code {type_code}")
            frame_type = (
                FrameType.I, FrameType.P, FrameType.B
            )[type_code]
            width = reader.read_bits(16)
            height = reader.read_bits(16)
            reader.read_bits(16)  # frame index (informational)
            if (width, height) != (encoded.width, encoded.height):
                raise CodecError(
                    "bitstream header dimensions disagree with frame "
                    "metadata"
                )
            if frame_type is not encoded.frame_type:
                raise CodecError(
                    "bitstream frame type disagrees with frame metadata"
                )
            if frame_type.needs_past_reference and past is None:
                raise CodecError(f"{frame_type.value} frame needs a past "
                                 "reference")
            if frame_type.needs_future_reference and future is None:
                raise CodecError("B frame needs a future reference")

            if tracer is not None:
                tracer.event("codec.phase", phase="macroblocks")
            pixels = np.empty((height, width, 3), dtype=np.uint8)
            size = MACROBLOCK_SIZE
            for top in range(0, height, size):
                for left in range(0, width, size):
                    predictor = self._decode_prediction(
                        reader, frame_type, past, future, top, left,
                        pixels
                    )
                    block = self._decode_residual(reader)
                    reconstructed = np.clip(
                        np.round(block + predictor), 0, 255
                    ).astype(np.uint8)
                    pixels[top:top + size, left:left + size] = (
                        reconstructed
                    )
        except Exception as error:
            # Close the span so a caught decode error can't poison the
            # tracer's nesting for every span that follows.
            if tracer is not None:
                assert frame_span is not None
                tracer.end_span(frame_span, error=type(error).__name__)
            raise
        registry = obs_metrics.registry()
        registry.counter(
            "codec.frames_decoded", "frames pushed through the decoder"
        ).inc()
        registry.counter(
            "codec.macroblocks_decoded", "macroblocks reconstructed"
        ).inc((height // size) * (width // size))
        if tracer is not None:
            assert frame_span is not None
            tracer.end_span(
                frame_span,
                macroblocks=(height // size) * (width // size),
            )
        return DecodedFrame(encoded.index, frame_type, pixels)

    def _decode_prediction(
        self,
        reader: BitReader,
        frame_type: FrameType,
        past: np.ndarray | None,
        future: np.ndarray | None,
        top: int,
        left: int,
        reconstruction: np.ndarray,
    ) -> np.ndarray:
        """Read one macroblock's side-information and rebuild its
        predictor."""
        if frame_type is FrameType.I:
            mode = reader.read_bits(2)
            if mode >= self._INTRA_MODES:
                raise CodecError(f"unknown intra mode {mode}")
            candidates = self._intra_candidates(
                reconstruction, top, left
            )
            predictor = candidates[mode]
            if predictor is None:
                raise CodecError(
                    f"intra mode {mode} references an unavailable "
                    "neighbour"
                )
            return predictor
        assert past is not None
        motion = (reader.read_se(), reader.read_se())
        predictor = self._reference_block(past, top, left, motion)
        if frame_type is FrameType.B:
            assert future is not None
            motion_b = (reader.read_se(), reader.read_se())
            predictor = (
                predictor
                + self._reference_block(future, top, left, motion_b)
            ) / 2.0
        return predictor

    # ------------------------------------------------------------------
    # Sequence-level helpers
    # ------------------------------------------------------------------

    def encode_sequence(
        self, frames: list[np.ndarray]
    ) -> list[EncodedFrame]:
        """Encode a frame sequence with this codec's GOP structure.

        B frames reference the nearest *following* I/P frame; encoding
        order is handled internally, the returned list is display order.
        """
        if not frames:
            return []
        for frame in frames:
            self._validate_frame(frame)

        types = [
            self.config.gop.frame_type(i) for i in range(len(frames))
        ]
        # A trailing B with no future anchor degrades to P.
        for i in range(len(frames)):
            if types[i] is FrameType.B and not any(
                t is not FrameType.B for t in types[i + 1:]
            ):
                types[i] = FrameType.P

        encoded: list[EncodedFrame | None] = [None] * len(frames)
        reconstructions: dict[int, np.ndarray] = {}
        last_anchor: int | None = None
        # First pass: anchors (I/P) in display order.
        for i, frame_type in enumerate(types):
            if frame_type is FrameType.B:
                continue
            past = (
                reconstructions[last_anchor]
                if last_anchor is not None else None
            )
            if frame_type is FrameType.P and past is None:
                frame_type = types[i] = FrameType.I
            enc, recon = self.encode_frame(
                i, frames[i], frame_type, past=past
            )
            encoded[i] = enc
            reconstructions[i] = recon
            last_anchor = i
        # Second pass: B frames between their anchors.
        anchors = sorted(reconstructions)
        for i, frame_type in enumerate(types):
            if frame_type is not FrameType.B:
                continue
            past_anchor = max(a for a in anchors if a < i)
            future_anchor = min(a for a in anchors if a > i)
            enc, recon = self.encode_frame(
                i,
                frames[i],
                FrameType.B,
                past=reconstructions[past_anchor],
                future=reconstructions[future_anchor],
            )
            encoded[i] = enc
            reconstructions[i] = recon
        assert all(e is not None for e in encoded)
        return [e for e in encoded if e is not None]

    def decode_sequence(
        self, encoded: list[EncodedFrame]
    ) -> list[DecodedFrame]:
        """Decode a display-order sequence produced by
        :meth:`encode_sequence`."""
        decoded: dict[int, DecodedFrame] = {}
        anchors: list[int] = []
        for frame in encoded:
            if frame.frame_type is FrameType.B:
                continue
            past = decoded[anchors[-1]].pixels if anchors else None
            decoded[frame.index] = self.decode_frame(frame, past=past)
            anchors.append(frame.index)
        for frame in encoded:
            if frame.frame_type is not FrameType.B:
                continue
            past_anchor = max(a for a in anchors if a < frame.index)
            future_anchor = min(a for a in anchors if a > frame.index)
            decoded[frame.index] = self.decode_frame(
                frame,
                past=decoded[past_anchor].pixels,
                future=decoded[future_anchor].pixels,
            )
        return [decoded[f.index] for f in encoded]

    # ------------------------------------------------------------------

    @staticmethod
    def _validate_frame(frame: np.ndarray) -> None:
        if frame.ndim != 3 or frame.shape[2] != 3:
            raise CodecError(
                f"frames must be HxWx3, got shape {frame.shape}"
            )
        if frame.dtype != np.uint8:
            raise CodecError(f"frames must be uint8, got {frame.dtype}")
        height, width = frame.shape[:2]
        if height % MACROBLOCK_SIZE or width % MACROBLOCK_SIZE:
            raise CodecError(
                f"frame {width}x{height} is not a multiple of the "
                f"{MACROBLOCK_SIZE}px macroblock size"
            )
