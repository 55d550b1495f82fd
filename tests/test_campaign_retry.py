"""Retry-on-worker-death contract: a transiently dying worker is re-run
on a fresh pool (counted by ``campaign.retries``, once per death), a
deterministically dying one still fails after exhausting its retries,
siblings caught by the broken pool are requeued (``campaign.requeued``)
and never counted as retries, and ``max_retries=0`` restores the old
fail-immediately behavior."""

from repro.campaign import CampaignSpec, JobSpec, run_campaign


def probe(action: str = "echo", **extra) -> JobSpec:
    return JobSpec(kind="_probe", params={"action": action, **extra},
                   tag=f"probe-{action}")


class TestRetryOnWorkerDeath:
    def test_transient_death_is_retried_and_succeeds(self, tmp_path):
        """A worker that dies once (marker-file probe) is re-run on a
        fresh pool and the job completes; nothing counts as failed.  The
        one death is one retry, whether or not the echo sibling was
        collected before the pool broke."""
        marker = tmp_path / "died-once"
        result = run_campaign(
            [probe("crash_once", marker=str(marker)), probe("echo")],
            jobs=2,
        )
        assert marker.exists()  # the first attempt really died
        assert result.failed == 0
        assert all(r.ok for r in result.results)
        snap = result.metrics.snapshot()
        assert snap["campaign.retries"] == 1
        assert snap.get("campaign.requeued", 0) in (0, 1)

    def test_poisoned_siblings_recover_too(self, tmp_path):
        """One death poisons the whole pool: sibling futures that were
        never collected raise BrokenProcessPool as well and must be
        retried rather than reported failed."""
        marker = tmp_path / "died-once"
        jobs = [probe("crash_once", marker=str(marker))] + [
            probe("echo") for _ in range(3)
        ]
        result = run_campaign(jobs, jobs=2)
        assert result.failed == 0
        assert all(r.ok for r in result.results)
        assert result.metrics.snapshot()["campaign.retries"] == 1

    def test_deterministic_death_exhausts_retries(self):
        result = run_campaign([probe("crash"), probe("echo")], jobs=2)
        crash = result.results[0]
        assert not crash.ok
        assert crash.error_type == "BrokenProcessPool"
        assert "died too" in crash.error
        # The pool's death is the crasher's one retry; its retry's own
        # death has no retry left.  A poisoned echo sibling is requeued,
        # not retried.
        assert result.metrics.snapshot()["campaign.retries"] == 1
        assert result.results[1].ok  # the sibling always recovers

    def test_retries_disabled_fails_immediately(self):
        result = run_campaign(
            [probe("crash"), probe("echo")], jobs=2, max_retries=0
        )
        crash = result.results[0]
        assert not crash.ok
        assert "retries disabled" in crash.error
        snap = result.metrics.snapshot()
        assert snap.get("campaign.retries", 0) == 0

    def test_spec_round_trips_max_retries(self):
        spec = CampaignSpec(name="r", max_retries=3)
        assert spec.to_dict()["max_retries"] == 3
        assert CampaignSpec.from_dict(spec.to_dict()).max_retries == 3
        assert CampaignSpec().max_retries == 1  # default: one retry
