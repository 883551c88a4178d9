"""The baselines check ``top_k`` as :meth:`ExpertFinder.find_experts`
does, so a bad value fails loudly instead of slicing the ranking."""

import pytest

from repro.baselines import CandidateModelFinder, DocumentModelFinder, ProfileTfidfFinder
from repro.core.expert_finder import ExpertFinder


@pytest.fixture(scope="module")
def baselines(tiny_dataset):
    candidates = tiny_dataset.candidates_for(None)
    system = ExpertFinder.build(
        tiny_dataset.merged_graph,
        candidates,
        tiny_dataset.analyzer,
        corpus=tiny_dataset.corpus,
    )
    return {
        "model1": CandidateModelFinder(system),
        "model2": DocumentModelFinder(system),
        "profile": ProfileTfidfFinder.build(
            candidates, tiny_dataset.corpus, tiny_dataset.analyzer
        ),
    }


@pytest.mark.parametrize("top_k", [-1, True, 1.5])
@pytest.mark.parametrize("name", ["model1", "model2", "profile"])
def test_bad_top_k_rejected(baselines, name, top_k):
    with pytest.raises(ValueError, match="top_k"):
        baselines[name].find_experts("best freestyle swimmer", top_k=top_k)


@pytest.mark.parametrize("name", ["model1", "model2", "profile"])
def test_good_top_k_truncates(baselines, tiny_dataset, name):
    finder = baselines[name]
    for need in tiny_dataset.queries:
        ranked = finder.find_experts(need)
        assert finder.find_experts(need, top_k=None) == ranked
        assert finder.find_experts(need, top_k=2) == ranked[:2]
        assert finder.find_experts(need, top_k=0) == []
