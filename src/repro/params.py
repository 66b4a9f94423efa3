"""Machine configuration and cycle cost model for the MGS reproduction.

Every cycle constant used by the simulator lives here.  The defaults are
calibrated so that the micro-benchmarks of Table 3 in the paper (measured
on a 20 MHz Alewife with 1 KB pages and a 0-cycle inter-SSMP delay) come
out of the simulator with the values the paper reports.  See
``repro reproduce table3`` for the paper-vs-measured comparison.

Two dataclasses are exported:

``MachineConfig``
    The knobs that define a DSSMP: total processors ``P``, cluster size
    ``C``, page and cache-line geometry, and the external network latency.

``CostModel``
    Cycle charges for each primitive event (hardware misses, translation,
    protocol handler occupancies, per-word data manipulation costs).
"""

from __future__ import annotations

import types
import typing
from dataclasses import dataclass, field, fields, replace

__all__ = [
    "MachineConfig",
    "CostModel",
    "NetworkConfig",
    "ProtocolOptions",
    "UnknownFieldError",
    "check_field_types",
    "dataclass_from_dict",
    "network_config_from_dict",
    "cost_model_from_dict",
]

WORD_BYTES = 8

#: names of the external (inter-SSMP) interconnect models in ``repro.net``
EXTERNAL_MODELS = ("fixed", "bus", "fabric")
#: names of the internal (intra-SSMP) interconnect models in ``repro.net``
INTERNAL_MODELS = ("wire", "mesh")


@dataclass(frozen=True)
class NetworkConfig:
    """Configuration of the ``repro.net`` interconnect subsystem.

    The default (``external="fixed"``, ``internal="wire"``, all fault
    rates zero, transport off) reproduces the paper's section 4.2.2
    model bit-for-bit: a fixed one-way latency per network, no
    contention, perfectly reliable delivery.

    Attributes:
        external: inter-SSMP topology — ``"fixed"`` (paper model),
            ``"bus"`` (one shared link, serializes at
            ``bus_bandwidth``), or ``"fabric"`` (a switched fabric with
            a dedicated FIFO link per ordered cluster pair).
        internal: intra-SSMP topology — ``"wire"`` (fixed
            ``intra_wire_latency``) or ``"mesh"`` (Alewife-style 2-D
            mesh: base latency plus a per-hop charge).
        bus_bandwidth: bytes/cycle of the shared bus.
        link_bandwidth: bytes/cycle of each fabric link.
        mesh_hop_latency: extra cycles per mesh hop beyond the base
            ``intra_wire_latency``.
        drop_rate / dup_rate / delay_rate: per-message fault
            probabilities on external links, decided by a deterministic
            counter-seeded PRNG (no wall-clock randomness).
        delay_cycles: extra latency applied to a "delay"-faulted message.
        fault_seed: seed for the fault-decision PRNG.
        reliable: force the reliable-delivery transport on (``True``) or
            off (``False``); ``None`` auto-enables it exactly when any
            fault rate is nonzero, so the MGS engines always see
            exactly-once in-order delivery.
        ack_timeout: base retransmission timeout in cycles; ``0`` derives
            it from the machine's round-trip time.
        backoff_cap: maximum number of timeout doublings.
    """

    external: str = "fixed"
    internal: str = "wire"
    bus_bandwidth: float = 1.0
    link_bandwidth: float = 4.0
    mesh_hop_latency: int = 1
    drop_rate: float = 0.0
    dup_rate: float = 0.0
    delay_rate: float = 0.0
    delay_cycles: int = 2000
    fault_seed: int = 0xA1E31FE
    reliable: bool | None = None
    ack_timeout: int = 0
    backoff_cap: int = 6

    def __post_init__(self) -> None:
        if self.external not in EXTERNAL_MODELS:
            raise ValueError(f"external must be one of {EXTERNAL_MODELS}")
        if self.internal not in INTERNAL_MODELS:
            raise ValueError(f"internal must be one of {INTERNAL_MODELS}")
        for name in ("drop_rate", "dup_rate", "delay_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate < 1.0:
                raise ValueError(f"{name} must be in [0, 1)")
        if self.bus_bandwidth <= 0 or self.link_bandwidth <= 0:
            raise ValueError("bandwidths must be positive")
        if self.delay_cycles < 0 or self.ack_timeout < 0 or self.backoff_cap < 0:
            raise ValueError("delay_cycles/ack_timeout/backoff_cap must be >= 0")

    @property
    def faults_enabled(self) -> bool:
        """True when any fault injection is configured."""
        return self.drop_rate > 0 or self.dup_rate > 0 or self.delay_rate > 0

    @property
    def reliable_effective(self) -> bool:
        """Whether the reliable transport wraps external messages."""
        if self.reliable is None:
            return self.faults_enabled
        return self.reliable


@dataclass(frozen=True)
class ProtocolOptions:
    """Feature knobs for the MGS software protocol.

    These exist so the ablation experiments can toggle design choices the
    paper calls out.

    Attributes:
        single_writer_opt: enable the paper's single-writer optimization
            (send the whole page home instead of a diff when only one
            write copy is outstanding, and let the writer keep its copy).
        fast_read_clean: model the paper's proposed future optimization
            that removes invalidation of read-only data from the critical
            path of page cleaning (section 4.2.4).
    """

    single_writer_opt: bool = True
    fast_read_clean: bool = False


@dataclass(frozen=True)
class MachineConfig:
    """Shape of a simulated DSSMP.

    Attributes:
        total_processors: ``P`` in the paper's framework.
        cluster_size: ``C``, processors per SSMP.  ``C == P`` collapses
            the machine into a single tightly-coupled SSMP ("P4 mode" in
            the paper's 32-processor bars); ``C == 1`` makes every node a
            uniprocessor, i.e. a pure software-DSM system.
        page_size: bytes per virtual page (paper default 1 KB).
        line_size: bytes per hardware cache line (Alewife: 16 B).
        inter_ssmp_delay: fixed one-way latency, in cycles, added to every
            message that crosses an SSMP boundary (paper default 1000).
        intra_wire_latency: one-way wire latency, in cycles, of the
            internal (intra-SSMP) network.
        control_msg_bytes: size, in bytes, of a protocol control message
            (data-carrying messages add their payload on top).
        hw_dir_pointers: hardware directory pointers per line before the
            software-extended directory (LimitLESS) takes over.
        network: the ``repro.net`` interconnect configuration (topology,
            fault injection, reliable transport).
        protocol: name of the coherence engine driving software shared
            memory — ``"mgs"`` (default), ``"swdsm"``, ``"sc_pages"``,
            or ``"gcs"``; see :mod:`repro.protocols`.  Participates in
            run-cache keys (the config is hashed whole).
    """

    total_processors: int = 32
    cluster_size: int = 32
    page_size: int = 1024
    line_size: int = 16
    inter_ssmp_delay: int = 1000
    intra_wire_latency: int = 5
    control_msg_bytes: int = 64
    hw_dir_pointers: int = 5
    network: NetworkConfig = field(default_factory=NetworkConfig)
    options: ProtocolOptions = field(default_factory=ProtocolOptions)
    #: coherence engine by registry name (see :mod:`repro.protocols`)
    protocol: str = "mgs"

    def __post_init__(self) -> None:
        if self.total_processors < 1:
            raise ValueError("total_processors must be >= 1")
        if self.cluster_size < 1 or self.cluster_size > self.total_processors:
            raise ValueError("cluster_size must be in [1, total_processors]")
        if self.total_processors % self.cluster_size != 0:
            raise ValueError("cluster_size must divide total_processors")
        if self.page_size % self.line_size != 0:
            raise ValueError("line_size must divide page_size")
        if self.page_size % WORD_BYTES != 0:
            raise ValueError("page_size must be a multiple of the word size")
        if self.intra_wire_latency < 0:
            raise ValueError("intra_wire_latency must be >= 0")
        if self.control_msg_bytes < 1:
            raise ValueError("control_msg_bytes must be >= 1")
        if self.hw_dir_pointers < 0:
            raise ValueError("hw_dir_pointers must be >= 0")
        if not isinstance(self.protocol, str) or not self.protocol:
            raise ValueError("protocol must be a non-empty engine name")
        for name, cls in (("network", NetworkConfig), ("options", ProtocolOptions)):
            value = getattr(self, name)
            if not isinstance(value, cls):
                raise TypeError(
                    f"{name} must be a {cls.__name__}, got {type(value).__name__}"
                )
        if self.protocol != "mgs":
            # Registry lookup + per-engine option validation.  Imported
            # lazily: params is a leaf module and the engine registry
            # sits far above it; the default engine skips the lookup so
            # config construction stays import-cycle-free and cheap.
            from repro.core.engine import validate_engine_config

            validate_engine_config(self)

    @property
    def num_clusters(self) -> int:
        """Number of SSMPs in the DSSMP."""
        return self.total_processors // self.cluster_size

    @property
    def words_per_page(self) -> int:
        return self.page_size // WORD_BYTES

    @property
    def lines_per_page(self) -> int:
        return self.page_size // self.line_size

    @property
    def words_per_line(self) -> int:
        return self.line_size // WORD_BYTES

    @property
    def hardware_only(self) -> bool:
        """True when the machine is a single tightly-coupled SSMP."""
        return self.cluster_size == self.total_processors

    def cluster_of(self, processor: int) -> int:
        """SSMP index that owns ``processor``."""
        return processor // self.cluster_size

    def processors_of(self, cluster: int) -> range:
        """Processor ids belonging to SSMP ``cluster``."""
        base = cluster * self.cluster_size
        return range(base, base + self.cluster_size)

    def with_cluster_size(self, cluster_size: int) -> "MachineConfig":
        """A copy of this config with a different cluster size."""
        return replace(self, cluster_size=cluster_size)


@dataclass(frozen=True)
class CostModel:
    """Cycle costs for every primitive simulator event.

    The hardware group and the translation group are taken directly from
    Table 3 of the paper.  The software-protocol components are free
    parameters calibrated so the end-to-end protocol operations land on
    the paper's measured values (TLB fill 1037, inter-SSMP read miss
    6982, write miss 16331, release with one writer 14226, release with
    two writers 32570).
    """

    # --- hardware shared memory (Table 3, top group) ---
    cache_hit: int = 2
    miss_local: int = 11
    miss_remote: int = 38
    miss_2party: int = 42
    miss_3party: int = 63
    miss_software_dir: int = 425

    # --- software virtual memory (Table 3, middle group) ---
    translate_array: int = 18
    translate_pointer: int = 24

    # --- software shared memory components (calibrated) ---
    # Fault entry: trap + page-table probe + mapping lock.
    fault_overhead: int = 600
    # Completing a fault once data is present: frame bookkeeping + TLB fill.
    map_fill: int = 437
    # A TLB fill that finds the page already resident in the local SSMP
    # costs fault_overhead + map_fill = 1037 (Table 3 "TLB Fill").

    # Per-message CPU occupancy.
    msg_inter_ssmp: int = 350  # active message across the external network
    msg_intra_ssmp: int = 100  # active message within an SSMP (PINV etc.)
    msg_send: int = 100  # launch cost per message sent from inside a handler

    # Server handler occupancies.
    server_read: int = 911
    server_write_extra: int = 757  # extra bookkeeping for a write grant
    server_release: int = 500

    # Remote-client / releaser occupancies.
    release_entry: int = 300  # DUQ pop + REL construction
    release_resume: int = 242  # RACK handling, resume faulting thread
    free_page: int = 100

    # Data manipulation (per 8-byte word unless noted).
    twin_fixed: int = 400
    twin_per_word: int = 64
    twin_refresh_per_word: int = 43  # refresh twin after a 1W release
    diff_fixed: int = 200
    diff_per_word: int = 60  # compare page against twin
    apply_fixed: int = 285
    apply_per_word: int = 74  # merge a diff into the home, per changed word
    apply_full_per_word: int = 12  # install a full page (1WDATA) at the home
    clean_per_line: int = 40  # page cleaning: prefetch/store/flush loop
    dma_fixed: int = 300
    dma_per_line: int = 16

    # Synchronization primitives.
    lock_local_acquire: int = 40  # hw shared-memory lock, token present
    lock_local_release: int = 20
    lock_global_hop: int = 250  # handler occupancy per token-protocol msg
    barrier_local_per_proc: int = 30  # intra-SSMP combine cost
    barrier_msg: int = 250  # combine/release handler per SSMP
    barrier_flat_per_proc: int = 25  # P4-style flat barrier at C == P

    def dma_page(self, lines: int) -> int:
        """Cycles to DMA ``lines`` cache lines between SSMPs."""
        return self.dma_fixed + lines * self.dma_per_line

    def clean_page(self, lines: int) -> int:
        """Cycles to make ``lines`` cache lines globally coherent."""
        return lines * self.clean_per_line

    def make_twin(self, words: int) -> int:
        return self.twin_fixed + words * self.twin_per_word

    def make_diff(self, words: int) -> int:
        return self.diff_fixed + words * self.diff_per_word

    def apply_words(self, words: int) -> int:
        return words * self.apply_per_word


# ---------------------------------------------------------------------------
# strict dict -> dataclass construction (the request validation surface)
# ---------------------------------------------------------------------------
#
# Everything that accepts configuration from the outside world — the
# ``repro.serve`` HTTP API — funnels through these constructors.  They
# are deliberately strict: unknown keys raise :class:`UnknownFieldError`
# instead of being silently dropped, so a typo in a request ("pagesize")
# is a 400, not a simulation of the wrong machine.  Value validation
# itself is the dataclasses' own ``__post_init__`` checks.


class UnknownFieldError(ValueError):
    """A dict carried keys the target dataclass does not define."""

    def __init__(self, cls: type, unknown: list[str]) -> None:
        self.cls = cls
        self.unknown = sorted(unknown)
        known = ", ".join(sorted(f.name for f in fields(cls)))
        super().__init__(
            f"unknown {cls.__name__} field(s) {self.unknown}; "
            f"known fields: {known}"
        )


def _scalar_ok(hint, value) -> bool:
    """Whether ``value`` fits the scalar annotation ``hint``: a bool is
    not an int, an int is fine for a float, and a ``T | None`` field
    takes None.  Other annotations accept anything."""
    if isinstance(hint, types.UnionType):
        return any(_scalar_ok(h, value) for h in hint.__args__)
    if hint is type(None):
        return value is None
    if hint is bool or hint is str:
        return isinstance(value, hint)
    if hint is int:
        return isinstance(value, int) and not isinstance(value, bool)
    if hint is float:
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    return True


def check_field_types(cls, d: dict) -> None:
    """Raise ``TypeError`` for a value of ``d`` whose type does not match
    the scalar annotation of the ``cls`` field it names."""
    hints = typing.get_type_hints(cls)
    for name, value in d.items():
        if not _scalar_ok(hints[name], value):
            hint = getattr(hints[name], "__name__", hints[name])
            raise TypeError(f"{cls.__name__}.{name} must be {hint}, got {value!r}")


def dataclass_from_dict(cls, d: dict):
    """Build dataclass ``cls`` from ``d``, rejecting unknown keys and
    values whose type does not match a scalar field's annotation.

    Raises :class:`UnknownFieldError` on unknown keys and ``TypeError``
    when ``d`` is not a dict or a value has the wrong type; the
    dataclass's own ``__post_init__`` performs value validation.
    """
    if not isinstance(d, dict):
        raise TypeError(f"{cls.__name__} wants a dict, got {type(d).__name__}")
    names = {f.name for f in fields(cls)}
    unknown = [k for k in d if k not in names]
    if unknown:
        raise UnknownFieldError(cls, unknown)
    check_field_types(cls, d)
    return cls(**d)


def _converter(cls):
    def convert(d: dict):
        return dataclass_from_dict(cls, d)

    return convert


network_config_from_dict = _converter(NetworkConfig)
"""Strict ``dict -> NetworkConfig`` (unknown keys raise)."""

cost_model_from_dict = _converter(CostModel)
"""Strict ``dict -> CostModel`` (unknown keys raise)."""
