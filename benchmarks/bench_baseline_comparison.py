"""Extension bench: the paper's system vs. the literature baselines.

Compares, on the same dataset and query set:

* the paper's system (Eq. 1–3, final parameters);
* Balog Model 1 and Model 2 (the TREC enterprise expert-finding
  standard, the paper's reference [3]) ranking the paper system's own
  collection: its documents and its Table-1 evidence with its ``wr``;
* the classic profile-only TF-IDF matcher the introduction argues
  against, over the dataset's analyzed profiles;
* the random 20-user baseline.

Expected shape: every behaviour-based method beats random and the
profile-only matcher — the paper's central claim — while the paper's
distance-weighted aggregation is competitive with the generative
models.
"""

from repro.baselines.balog import CandidateModelFinder, DocumentModelFinder
from repro.baselines.profile_tfidf import ProfileTfidfFinder
from repro.core.config import FinderConfig
from repro.evaluation.reports import metrics_table
from repro.evaluation.runner import evaluate_finder


def bench_baseline_comparison(benchmark, ctx, save_result):
    dataset = ctx.dataset

    def run_all():
        rows = {"Random": ctx.baseline}
        system = ctx.runner.finder(None, FinderConfig())
        rows["Paper (Eq. 1-3)"] = evaluate_finder(dataset, system).summary()
        for label, model in (
            ("Balog Model 1", CandidateModelFinder),
            ("Balog Model 2", DocumentModelFinder),
        ):
            rows[label] = evaluate_finder(dataset, model(system)).summary()
        profile = ProfileTfidfFinder.build(
            dataset.candidates_for(None), dataset.corpus, dataset.analyzer
        )
        rows["Profile TF-IDF"] = evaluate_finder(dataset, profile).summary()
        return rows

    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)
    save_result(
        "baseline_comparison",
        metrics_table(rows, title="Extension — system vs literature baselines"),
    )

    random_map = rows["Random"].map
    # behaviour-based methods beat random
    assert rows["Paper (Eq. 1-3)"].map > random_map
    assert rows["Balog Model 1"].map > random_map
    assert rows["Balog Model 2"].map > random_map
    # the paper's central claim: behavioural trace beats static profiles
    assert rows["Paper (Eq. 1-3)"].map > rows["Profile TF-IDF"].map
    assert rows["Balog Model 1"].map > rows["Profile TF-IDF"].map
