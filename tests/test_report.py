"""Report format tests: verdict logic, stable digests, byte-identical
serialization for identical inputs."""

import json

from frobg2.report import (
    DEFAULT_PRECISION,
    VerificationReport,
    point_digest,
    relative_tolerance,
)


class TestDigest:
    def test_stable_and_short(self):
        a = point_digest(("An", 3, [1, 2]))
        b = point_digest(("An", 3, [1, 2]))
        assert a == b
        assert len(a) == 16
        assert point_digest(("An", 3, [1, 3])) != a


class TestVerdict:
    def test_empty_report_fails(self):
        r = VerificationReport(command="x", n=1)
        assert r.verdict == "fail"

    def test_all_pass(self):
        r = VerificationReport(command="x", n=1)
        r.add_trial("d", "0", True)
        assert r.verdict == "pass"
        r.add_trial("e", "1", False)
        assert r.verdict == "fail"


class TestSerialization:
    def test_round_trip_fields(self):
        r = VerificationReport(command="verify-g2", n=2, family="An(2)",
                               seed=7, precision=128)
        r.add_trial("abc", "0", True)
        d = json.loads(r.to_json())
        assert d["command"] == "verify-g2"
        assert d["trials"][0]["pass"] is True
        assert d["verdict"] == "pass"

    def test_byte_identical(self):
        def build():
            r = VerificationReport(command="c", n=3, family="f", seed=1)
            r.add_trial("d1", "0", True)
            r.add_trial("d2", "0", True)
            return r.to_json()

        assert build() == build()


class TestTolerance:
    def test_half_precision(self):
        assert relative_tolerance(256) == 2.0 ** -128
        assert relative_tolerance(DEFAULT_PRECISION) < 1e-38
