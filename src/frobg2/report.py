"""Verification reports.

Every check produces a :class:`VerificationReport`: one record per
trial with a digest of the sampled point and the residual, plus an
overall verdict.  Exact trials pass only on an identically-zero
residual; numeric trials compare the residual against a tolerance
relative to the largest addend magnitude seen during evaluation, so
cancellation loss is measured in the units that matter.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

DEFAULT_SEED = 20120427
DEFAULT_PRECISION = 256


def relative_tolerance(precision):
    """Half the working precision, relative to the largest addend."""
    return 2.0 ** (-(precision // 2))


def point_digest(values):
    """Stable short digest of a sampled point."""
    text = repr(values).encode()
    return hashlib.sha256(text).hexdigest()[:16]


@dataclass
class Trial:
    point_digest: str
    residual: str
    passed: bool

    def to_dict(self):
        return {
            "point_digest": self.point_digest,
            "residual": self.residual,
            "pass": self.passed,
        }


@dataclass
class VerificationReport:
    command: str
    n: int
    family: str = ""
    params: dict = field(default_factory=dict)
    seed: int = DEFAULT_SEED
    precision: int = DEFAULT_PRECISION
    trials: list = field(default_factory=list)

    def add_trial(self, digest, residual, passed):
        self.trials.append(Trial(digest, residual, passed))

    @property
    def verdict(self):
        return "pass" if self.trials and all(t.passed for t in self.trials) else "fail"

    def to_dict(self):
        return {
            "command": self.command,
            "n": self.n,
            "family": self.family,
            "params": self.params,
            "seed": self.seed,
            "precision": self.precision,
            "trials": [t.to_dict() for t in self.trials],
            "verdict": self.verdict,
        }

    def to_json(self):
        return json.dumps(self.to_dict())
