"""The byte data-path workload: ``archive_putget``.

Drives :class:`repro.service.ArchiveService` — encrypt, LDPC encode,
voxel write, seal, read-back verification, then channel, posterior, LDPC
decode, CRC and decrypt on the way out. One repetition is a batch: a fresh
service with ``key_seed`` set to the workload seed puts every object of
the batch and then gets every acknowledged one back.

Object sizes run from one 128-byte sector up past one platter's 64 KiB
payload (:data:`SECTOR_COUNTS`, :data:`OVERSIZE_BYTES`). The largest
object does not fit on one platter, so with today's service its put fails;
it stays in the mix and is counted as a failed operation.
"""

from __future__ import annotations

import gc
import hashlib
from time import perf_counter
from typing import Dict, List, Tuple

import numpy as np

import repro.media.codec as codec_module
import repro.service.frontend as frontend
from common import (
    MIN_REPETITIONS,
    CheckFailed,
    Outcome,
    check,
    median,
    percentile,
    position_medians,
    probe_scale,
    same_counts,
)
from repro.ecc.ldpc import LdpcCode
from repro.media.channel import ReadChannel
from repro.media.codec import SectorCodec
from repro.media.write_drive import WriteDrive
from repro.service import ArchiveService, ServiceConfig
from repro.service.verification import VerificationManager
from spans import Recorder

SECTOR_BYTES = 128
#: Sector counts of the objects: one sector, then 4 to 64 (8 KB) in steps
#: of 4. The cost of a put or get follows its sector count; evenly spaced
#: counts keep the median operation's cost steady from seed to seed, where
#: log-spaced ones left it between neighbours twice apart.
SECTOR_COUNTS = (1,) + tuple(range(4, 68, 4))
#: One object past the 64 KiB payload of a platter.
OVERSIZE_BYTES = 72000


def object_sizes(seed: int) -> List[Tuple[str, int]]:
    """The batch for ``seed``: ``(file_id, size)`` pairs in put order.

    The seed draws how much of each object's last sector is filled, the
    order and (in :func:`object_bytes`) the contents; sector counts are
    fixed, so every seed asks for the same amount of coding work.
    """
    rng = np.random.default_rng([seed, 1])
    sizes = [n * SECTOR_BYTES - int(rng.integers(0, SECTOR_BYTES)) for n in SECTOR_COUNTS]
    sizes.append(OVERSIZE_BYTES + int(rng.integers(0, SECTOR_BYTES)))
    order = rng.permutation(len(sizes))
    return [(f"bench/obj{int(i)}-{sizes[int(i)]}", sizes[int(i)]) for i in order]


def object_bytes(seed: int, file_id: str, size: int) -> bytes:
    """Seeded object content (independent of the put order)."""
    key = int.from_bytes(hashlib.sha256(f"{seed}/{file_id}".encode()).digest()[:8], "little")
    return np.random.default_rng(key).bytes(size)


def run_batch(seed: int, probe: bool = False) -> Dict[str, object]:
    """Set up a service, put the batch, get it back; check and count.

    Returns the set-up time, every operation's wall time and outcome, and
    the batch's deterministic counters. With ``probe``, every time is
    scaled by a host-speed probe taken just before it
    (:func:`common.probe_scale`). Raises :class:`common.CheckFailed` when an
    acknowledged object does not come back byte-exact or its read-back
    verification reports failed sectors.
    """

    def scale() -> float:
        return probe_scale() if probe else 1.0

    setup_scale = scale()
    start = perf_counter()
    service = ArchiveService(ServiceConfig(key_seed=seed))
    setup_s = (perf_counter() - start) * setup_scale
    batch = object_sizes(seed)
    payloads = {fid: object_bytes(seed, fid, size) for fid, size in batch}
    ops: List[Tuple[str, int, bool, float]] = []  # (kind, bytes, ok, wall)
    acked: List[str] = []
    verified_sectors = 0
    verified_iterations = 0
    for fid, size in batch:
        data = payloads[fid]
        reports_before = len(service.verifier.reports)
        k = scale()
        t0 = perf_counter()
        try:
            location = service.put(fid, data)
        except (ValueError, RuntimeError):
            # Oversized objects raise ValueError from the write drive and
            # failed read-back verification raises RuntimeError: both are
            # refusals of this put, counted as failed operations.
            ops.append(("put", size, False, (perf_counter() - t0) * k))
            continue
        ops.append(("put", size, True, (perf_counter() - t0) * k))
        check(
            len(service.verifier.reports) == reports_before + 1,
            f"put of {fid} was acknowledged without a verification report",
        )
        report = service.verifier.reports[-1]
        check(report.platter_id == location.platter_id, f"{fid}: verified another platter")
        check(
            report.sectors_failed == 0,
            f"{fid}: {report.sectors_failed} sectors failed verification",
        )
        verified_sectors += report.sectors_checked
        verified_iterations += sum(v.ldpc_iterations for v in report.verdicts)
        acked.append(fid)
    digest = hashlib.sha256()
    read_sectors = 0
    for fid in acked:
        k = scale()
        t0 = perf_counter()
        try:
            data = service.get(fid)
        except OSError as error:  # an unrecoverable sector
            raise CheckFailed(f"acknowledged {fid} could not be read back: {error}") from error
        wall = (perf_counter() - t0) * k
        check(data == payloads[fid], f"get of {fid} did not return the bytes put")
        ops.append(("get", len(data), True, wall))
        digest.update(data)
        read_sectors += max(1, -(-len(data) // SECTOR_BYTES))
    retry = service.retry_stats
    counts = {
        "objects": len(batch),
        "puts_acked": len(acked),
        "puts_failed": len(batch) - len(acked),
        "bytes_acked": sum(len(payloads[f]) for f in acked),
        "sectors_written": service.write_drive.stats.sectors_written,
        "sectors_checked": verified_sectors,
        "verify_iterations": verified_iterations,
        # Each verified or read sector is one decode, plus one per re-read
        # and deep decode on the get path.
        "ldpc_decodes": verified_sectors + read_sectors + retry.sector_rereads + retry.deep_decodes,
        "sector_rereads": retry.sector_rereads,
        "deep_decodes": retry.deep_decodes,
        "unrecovered": retry.unrecovered_sectors,
        "staged_leaks": service.staging.count,
        "get_digest": digest.hexdigest()[:16],
    }
    return {"setup_s": setup_s, "ops": ops, "counts": counts}


def _direction_mb_per_s(ops, kind: str) -> float:
    """Acknowledged user bytes of ``kind`` ÷ wall of every ``kind`` attempt."""
    wall = sum(w for k, _b, _ok, w in ops if k == kind)
    acked = sum(b for k, b, ok, _w in ops if k == kind and ok)
    return acked / 1e6 / wall if wall > 0 else 0.0


class ArchiveWorkload:
    """``archive_putget``: put/verify/get batches through ``ArchiveService``."""

    name = "archive_putget"

    def memory_unit(self, seed: int) -> None:
        run_batch(seed)

    def clean(self, seed: int, seconds: float) -> Outcome:
        """Repeat batches until ``seconds`` pass (at least :data:`common.MIN_REPETITIONS`).

        Host times are scaled by the speed probe taken beside them, and
        each operation's figure is its median across the batches
        (:func:`common.position_medians`).
        """
        out = Outcome()
        setups: List[float] = []
        op_walls: List[List[float]] = []
        first = None
        began = perf_counter()
        while len(setups) < MIN_REPETITIONS or perf_counter() - began < seconds:
            gc.collect()  # the previous batch's garbage, outside the timing
            batch = run_batch(seed, probe=True)
            counts = batch["counts"]
            if first is None:
                first = counts
            else:
                same_counts(f"{self.name} repetition {len(setups) + 1}", first, counts)
            ops = batch["ops"]
            setups.append(batch["setup_s"])
            op_walls.append([w for _k, _b, _ok, w in ops])
            out.host_seconds.append(sum(op_walls[-1]))
            out.attempted += len(ops)
            out.failed += sum(1 for op in ops if not op[2])
        # Every batch of a seed runs the same operations in the same order.
        typical = [
            (kind, size, ok, wall)
            for (kind, size, ok, _w), wall in zip(ops, position_medians(op_walls))
        ]
        acked = [wall for _k, _b, ok, wall in typical if ok]
        out.counts = first
        out.metrics = {
            "setup_s": median(setups),
            "ok_share": (out.attempted - out.failed) / out.attempted,
            "host_ms_per_op": sum(w for *_rest, w in typical) / len(typical) * 1e3,
            "op_p50_ms": percentile(acked, 50) * 1e3,
            "archive.op_p99_ms": percentile(acked, 99) * 1e3,
            "archive.put_mb_per_s": _direction_mb_per_s(typical, "put"),
            "archive.get_mb_per_s": _direction_mb_per_s(typical, "get"),
        }
        out.notes["repetitions"] = len(setups)
        return out

    def traced(self, seed: int) -> Tuple[Outcome, Recorder]:
        """One batch with spans around every data-path layer."""
        gc.collect()
        rec = Recorder()
        counts = rec.counts

        def on_decode(result, _args, _kwargs) -> None:
            counts["ldpc.decode_calls"] += 1
            counts["ldpc.iterations"] += result.iterations
            counts["ldpc.decode_success"] += 1 if result.success else 0

        def on_crc(result, _args, _kwargs) -> None:
            counts["crc.failures"] += 0 if result[0] else 1

        try:
            rec.wrap(ArchiveService, "put", "put", op_of=lambda a, _k: f"put:{a[1]}")
            rec.wrap(ArchiveService, "get", "get", op_of=lambda a, _k: f"get:{a[1]}")
            rec.wrap(frontend, "encrypt", "frontend.encrypt")
            rec.wrap(frontend, "decrypt", "frontend.decrypt")
            rec.wrap(WriteDrive, "write_file_sectors", "write_drive")
            rec.wrap(SectorCodec, "encode", "codec.encode")
            rec.wrap(SectorCodec, "decode", "codec.decode")
            rec.wrap(LdpcCode, "encode", "ldpc.encode")
            rec.wrap(LdpcCode, "decode", "ldpc.decode", after=on_decode)
            rec.wrap(codec_module, "verify_checksum", "crc.verify", after=on_crc)
            rec.wrap(ReadChannel, "observe", "channel.observe")
            rec.wrap(ReadChannel, "symbol_posteriors", "channel.posteriors")
            rec.wrap(VerificationManager, "verify_platter", "verification")
            batch = rec.call("batch", run_batch, seed, probe=True, op=f"batch:{seed}")
        finally:
            rec.restore()
        table = rec.by_name()

        def layer(name: str, field: str = "self_s") -> float:
            return table.get(name, {}).get(field, 0.0)

        ops = batch["ops"]
        c = batch["counts"]
        check(
            counts["ldpc.decode_calls"] == c["ldpc_decodes"],
            f"traced {counts['ldpc.decode_calls']} LDPC decodes, expected {c['ldpc_decodes']}",
        )
        decodes = counts["ldpc.decode_calls"]
        host = sum(w for _k, _b, _ok, w in ops)
        out = Outcome(
            counts=dict(c, ldpc_iterations=counts["ldpc.iterations"]), host_seconds=[host]
        )
        out.attempted = len(ops)
        out.failed = sum(1 for op in ops if not op[2])
        out.metrics = {
            "frontend.encrypt_s": layer("frontend.encrypt"),
            "frontend.decrypt_s": layer("frontend.decrypt"),
            "ldpc.decode_calls": decodes,
            "ldpc.decode_s": layer("ldpc.decode"),
            "ldpc.iterations": counts["ldpc.iterations"],
            "ldpc.decode_success_ratio": (
                counts["ldpc.decode_success"] / decodes if decodes else 0.0
            ),
            "ldpc.encode_s": layer("ldpc.encode"),
            "codec.encode_s": layer("codec.encode"),
            "codec.decode_s": layer("codec.decode"),
            "crc.failures": counts["crc.failures"],
            "channel.observe_s": layer("channel.observe"),
            "channel.posteriors_s": layer("channel.posteriors"),
            "write_drive.s": layer("write_drive"),
            "write_drive.sectors": c["sectors_written"],
            "verification.s": layer("verification"),
            "verification.sectors_checked": c["sectors_checked"],
            "service.sector_rereads": c["sector_rereads"],
            "service.deep_decodes": c["deep_decodes"],
            "service.unrecovered": c["unrecovered"],
            "service.staged_leaks": c["staged_leaks"],
            "service.put_self_s": layer("put"),
            "service.get_self_s": layer("get"),
        }
        return out, rec


WORKLOADS = {"archive_putget": ArchiveWorkload()}
