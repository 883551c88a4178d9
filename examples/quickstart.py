"""Quickstart: build a dataset, build a finder, ask a question.

Runs on the TINY synthetic dataset (~1 s to build) and shows the core
API end to end: dataset → ExpertFinder → ranked experts for a natural
language expertise need.

    python examples/quickstart.py
"""

from repro import DatasetScale, ExpertFinder, FinderConfig, build_dataset


def main() -> None:
    print("building the TINY synthetic dataset (12 candidates)...")
    dataset = build_dataset(DatasetScale.TINY, seed=7)
    counts = dataset.merged_graph.counts()
    print(
        f"  {counts['profiles']} profiles, {counts['resources']} resources,"
        f" {counts['containers']} groups/pages across 3 platforms\n"
    )

    # the paper's final configuration: α = 0.6, window = 100, distance 2
    finder = ExpertFinder.build(
        dataset.merged_graph,
        dataset.candidates_for(None),  # None = use all three platforms
        dataset.analyzer,
        FinderConfig(),
        corpus=dataset.corpus,
    )

    question = "Who is the best freestyle swimmer, is it Michael Phelps?"
    print(f"expertise need: {question!r}\n")
    print(f"{'rank':<5} {'candidate':<12} {'score':>9} {'#resources':>11} {'true expert?':>13}")
    experts = dataset.ground_truth.experts("sport")
    for rank, expert in enumerate(finder.find_experts(question, top_k=8), start=1):
        marker = "yes" if expert.candidate_id in experts else ""
        print(
            f"{rank:<5} {expert.candidate_id:<12} {expert.score:>9.2f}"
            f" {expert.supporting_resources:>11} {marker:>13}"
        )


if __name__ == "__main__":
    main()
