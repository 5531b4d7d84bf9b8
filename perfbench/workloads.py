"""The benchmark's named workloads.

Every workload runs the same pipeline (dim 32, L = 50, alpha = 0.1, one
epoch) and differs only in input shape.  Sizes are chosen so that a
different layer dominates each one; see ``perfbench/README.md`` for the
measured layer shares.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

#: Model and pipeline constants shared by every workload.
DIM = 32
CONTEXT_LENGTH = 50
CONTEXT_ALPHA = 0.1
EPOCHS = 1
INDEX_K = 10  # precompute(k=10); the stream's queries ask for the same depth
NUM_SEEDS = 50  # ris_influence_maximization(k=50)
#: Share of stream queries that are ``top_influencers`` live block scans.
#: Kept far from both 50% and 1% so neither p50 nor p99 sits on the boundary
#: between the index path's and the scan path's latency ranges.
SCAN_SHARE = 0.1
#: Users whose index rows are compared bitwise against a live scan.
CHECK_USERS = 64
#: Forward Monte-Carlo cascades used to score the selected seeds.
MC_RUNS = 300
#: Dataset generations per untraced run; setup_s reports their median.
SETUP_REPEATS = 3
#: Untimed queries (both kinds) before the stream's clock starts.
WARMUP_QUERIES = 200
#: Shape of the planted Pareto influence/conformity factors, overriding the
#: presets' 1.6.  At 1.6 the factors have infinite variance and a seed's
#: planted spread hinges on its few extreme users: over ten seeds the
#: IQR/median of im_spread was 0.31 on im-dense and 0.18 on many-users, so
#: no bound on it could hold.  3.0 keeps a heavy tail with finite variance.
PARETO_SHAPE = 3.0


@dataclass(frozen=True)
class Workload:
    """One input shape plus the repeat counts that keep its figures steady.

    Why each workload exists is recorded in ``BENCHMARK.json`` and
    ``perfbench/README.md``.

    A stage that is sub-second on a workload is repeated within the run and
    reported as the median over repeats; repeats share no work (fresh
    objects, fresh output directories, a different RIS seed each).
    """

    name: str
    preset: str  # SyntheticSocialDataset constructor: digg_like | flickr_like
    num_users: int
    num_items: int
    im_mean_probability: float
    publish_repeats: int
    im_repeats: int

    def smoke(self) -> "Workload":
        """A seconds-long version of the same pipeline, for the tests.

        Just large enough that one epoch learns above chance (AUC > 0.5).
        """
        return replace(
            self,
            num_users=max(400, self.num_users // 10),
            num_items=max(60, self.num_items // 5),
            publish_repeats=2,
            im_repeats=2,
        )


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="many-users",
            preset="digg_like",
            num_users=8000,
            num_items=300,
            im_mean_probability=0.02,
            publish_repeats=1,
            im_repeats=3,
        ),
        Workload(
            name="long-log",
            preset="digg_like",
            num_users=2000,
            num_items=1200,
            im_mean_probability=0.02,
            publish_repeats=5,
            im_repeats=5,
        ),
        Workload(
            name="im-dense",
            preset="flickr_like",
            num_users=4000,
            num_items=200,
            im_mean_probability=0.03,
            publish_repeats=3,
            im_repeats=1,
        ),
    )
}
