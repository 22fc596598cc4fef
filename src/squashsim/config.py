"""Machine configuration shared by the pipeline, policies, and filters.

A ``MachineConfig`` is checked when it is made (a rejected value raises
``ConfigError``) and cannot be changed afterwards, so no layer checks
the one it is handed.  ``with_policy`` and ``dataclasses.replace`` make
a new config, which is checked in turn.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from enum import Enum


class PolicyKind(str, Enum):
    BASELINE = "baseline"
    DELAY_ALL = "delay-all"
    DOS_PERFECT = "dos-perfect"
    DOS_BLOOM = "dos-bloom"

    def __str__(self) -> str:
        return self.value


class ConfigError(ValueError):
    """Raised for invalid machine configurations."""


@dataclass(frozen=True)
class MachineConfig:
    """Parameters of the simulated machine.

    Defaults: issue/commit width 8, two Bloom filters of 64 bits with
    2 hash functions each, saturation threshold at half the bits.
    """

    rob_size: int = 32
    width: int = 8
    policy: PolicyKind = PolicyKind.BASELINE
    bits: int = 64               # Bloom filter size m (power of two)
    hashes: int = 2              # hash functions k per filter
    filters: int = 2             # rolling filter count (one active)
    threshold: int | None = None  # saturation threshold in set bits; default bits // 2
    window_len: int | None = None  # deferred-clear window in dynamic instructions; default rob_size
    seed: int = 0
    oracle: bool = False         # run the exact-set oracle in lockstep (false-positive accounting)
    livelock_budget: int | None = None  # cycles without a commit before aborting; default 100 * rob_size
    squash_recovery: int = 0     # extra front-end stall cycles after a squash
    fp_counting: str = "evaluation"  # "evaluation": one FP per delayed issue check per cycle;
                                     # "entry": at most one per entry per delay episode

    def __post_init__(self) -> None:
        try:
            object.__setattr__(self, "policy", PolicyKind(self.policy))
        except ValueError:
            raise ConfigError(f"policy must be one of {', '.join(PolicyKind)}, "
                              f"got {self.policy!r}") from None
        for name, typ in _FIELD_TYPES:
            value = getattr(self, name)
            if typ == "bool":
                ok = isinstance(value, bool)
            elif typ.startswith("int"):
                ok = (isinstance(value, int) and not isinstance(value, bool)
                      or value is None and typ == "int | None")
            else:
                continue  # policy is coerced above, fp_counting checked below
            if not ok:
                raise ConfigError(f"{name} must be {typ}, got {value!r}")
        if self.rob_size < 1:
            raise ConfigError(f"rob_size must be >= 1, got {self.rob_size}")
        if self.width < 1:
            raise ConfigError(f"width must be >= 1, got {self.width}")
        if self.bits < 2 or self.bits & (self.bits - 1):
            raise ConfigError(f"bits must be a power of two >= 2, got {self.bits}")
        if self.hashes < 1:
            raise ConfigError(f"hashes must be >= 1, got {self.hashes}")
        if self.filters < 2:
            raise ConfigError(f"filters must be >= 2, got {self.filters}")
        if self.threshold is not None and not 1 <= self.threshold <= self.bits:
            raise ConfigError(f"threshold must be in [1, bits], got {self.threshold}")
        if self.window_len is not None and self.window_len < 0:
            raise ConfigError(f"window_len must be >= 0, got {self.window_len}")
        if self.livelock_budget is not None and self.livelock_budget < 1:
            raise ConfigError(f"livelock_budget must be >= 1, got {self.livelock_budget}")
        if self.squash_recovery < 0:
            raise ConfigError(f"squash_recovery must be >= 0, got {self.squash_recovery}")
        if self.fp_counting not in ("evaluation", "entry"):
            raise ConfigError(f"fp_counting must be 'evaluation' or 'entry', got {self.fp_counting}")
        for name in ("bits", "hashes", "filters", "effective_threshold", "effective_window"):
            value = getattr(self, name)
            if value >= 1 << 32:  # the context blob packs it as u32
                raise ConfigError(f"{name} must be < 2**32, got {value}")
        if self.policy is PolicyKind.DOS_BLOOM and self.hashes > self.bits:
            # a filter of m bits has at most m distinct indices, while each
            # hash costs a derived seed and a hash of every PC
            raise ConfigError(f"hashes must be <= bits ({self.bits}) under dos-bloom, "
                              f"got {self.hashes}")

    @property
    def effective_threshold(self) -> int:
        return self.bits // 2 if self.threshold is None else self.threshold

    @property
    def effective_window(self) -> int:
        return self.rob_size if self.window_len is None else self.window_len

    @property
    def effective_budget(self) -> int:
        return 100 * self.rob_size if self.livelock_budget is None else self.livelock_budget

    def with_policy(self, policy: PolicyKind | str) -> "MachineConfig":
        return replace(self, policy=policy)


# (name, annotation) per field; annotations are strings under postponed evaluation
_FIELD_TYPES = tuple((f.name, f.type) for f in fields(MachineConfig))
