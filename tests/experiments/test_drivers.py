"""Tests for the per-figure/table experiment drivers on the TINY dataset.

These validate mechanics (shapes, bounds, rendering) — the paper-shape
assertions on the SMALL dataset live in the benchmark suite, where the
statistics are meaningful.
"""

import pytest

from repro.experiments import (
    ablations,
    fig5_dataset,
    fig6_window,
    fig7_alpha,
    fig10_trust,
    fig11_delta,
    tab2_fig8_friends,
    tab3_fig9_networks,
    tab4_domains,
)
from repro.synthetic.vocab import DOMAINS


class TestFig5(object):
    @pytest.fixture(scope="class")
    def result(self, tiny_context):
        return fig5_dataset.run(tiny_context)

    def test_three_networks(self, result):
        assert [d.network for d in result.distributions] == ["FB", "TW", "LI"]

    def test_candidate_counts(self, result, tiny_context):
        for dist in result.distributions:
            assert dist.candidates == len(tiny_context.dataset.people)

    def test_distance0_equals_candidates(self, result):
        for dist in result.distributions:
            assert dist.resources_by_distance[0] == dist.candidates

    def test_counts_equal_a_direct_gather(self, result, tiny_context):
        """The finders' evidence counts what one shared-frontier gather
        per network reaches, each node once at its nearest distance."""
        from repro.socialgraph.distance import ResourceGatherer
        from repro.socialgraph.metamodel import Platform

        dataset = tiny_context.dataset
        expected = []
        for platform in Platform:
            gathered = ResourceGatherer(dataset.graphs[platform]).gather_many(
                dataset.candidates_for(platform), 2
            )
            nearest: dict[str, int] = {}
            for node_distance in gathered.distances.values():
                for node_id, distance in node_distance.items():
                    nearest[node_id] = min(distance, nearest.get(node_id, distance))
            counts = [0, 0, 0]
            for distance in nearest.values():
                counts[distance] += 1
            expected.append(tuple(counts))
        assert [d.resources_by_distance for d in result.distributions] == expected

    def test_linkedin_fewest(self, result):
        totals = {d.network: d.total_resources for d in result.distributions}
        assert totals["LI"] == min(totals.values())

    def test_domain_stats_cover_domains(self, result):
        assert [s.domain for s in result.domain_stats] == list(DOMAINS)

    def test_render(self, result):
        text = result.render()
        assert "Fig. 5a" in text and "Fig. 5b" in text


class TestFig6:
    @pytest.fixture(scope="class")
    def result(self, tiny_context):
        return fig6_window.run(tiny_context)

    def test_sweep_shape(self, result):
        assert set(result.sweeps) == {1, 2}
        for per_fraction in result.sweeps.values():
            assert len(per_fraction) == len(fig6_window.WINDOW_FRACTIONS)

    def test_series_accessor(self, result):
        series = result.series("map", 2)
        assert len(series) == len(fig6_window.WINDOW_FRACTIONS)
        assert all(0.0 <= v <= 1.0 for v in series)

    def test_fixed_window_present(self, result):
        assert set(result.fixed_100) == {1, 2}

    def test_render(self, result):
        assert "Fig. 6" in result.render()


class TestFig7:
    @pytest.fixture(scope="class")
    def result(self, tiny_context):
        return fig7_alpha.run(tiny_context)

    def test_grid(self, result):
        assert set(result.sweeps) == {0, 1, 2}
        for per_alpha in result.sweeps.values():
            assert len(per_alpha) == 11

    def test_plateau_spread_finite(self, result):
        assert result.plateau_spread("map", 2) >= 0.0

    def test_render(self, result):
        assert "Fig. 7" in result.render()


class TestTab2:
    @pytest.fixture(scope="class")
    def result(self, tiny_context):
        return tab2_fig8_friends.run(tiny_context)

    def test_four_rows(self, result):
        assert set(result.table) == {(1, False), (1, True), (2, False), (2, True)}

    def test_curves_shape(self, result):
        for curve in result.eleven_point.values():
            assert len(curve) == 11
        for curve in result.dcg_curves.values():
            assert len(curve) == len(tab2_fig8_friends.DCG_CUTS)

    def test_render(self, result):
        assert "Table 2" in result.render()


class TestTab3:
    @pytest.fixture(scope="class")
    def result(self, tiny_context):
        return tab3_fig9_networks.run(tiny_context)

    def test_twelve_cells(self, result):
        assert len(result.table) == 12

    def test_distance_2_beats_distance_0(self, result):
        # the headline finding holds even on the tiny dataset
        assert result.summary("All", 2).map > result.summary("All", 0).map

    def test_curves_for_all(self, result):
        assert set(result.eleven_point_all) == {0, 1, 2}
        assert set(result.dcg_all) == {0, 1, 2}

    def test_render(self, result):
        text = result.render()
        assert "Table 3" in text and "Random" in text


class TestTab4:
    @pytest.fixture(scope="class")
    def result(self, tiny_context):
        return tab4_domains.run(tiny_context)

    def test_full_grid(self, result):
        assert set(result.table) == set(DOMAINS)
        for per_network in result.table.values():
            assert set(per_network) == {"All", "FB", "TW", "LI"}
            for per_distance in per_network.values():
                assert set(per_distance) == {0, 1, 2}

    def test_best_network(self, result):
        best = result.best_network("sport", 2)
        assert best in ("FB", "TW", "LI")

    def test_render(self, result):
        assert "Table 4" in result.render()


class TestFig10:
    @pytest.fixture(scope="class")
    def result(self, tiny_context):
        return fig10_trust.run(tiny_context)

    def test_one_point_per_user(self, result, tiny_context):
        assert len(result.users) == len(tiny_context.dataset.people)

    def test_f1_bounds(self, result):
        assert all(0.0 <= u.f1 <= 1.0 for u in result.users)

    def test_resources_positive(self, result):
        assert all(u.resources > 0 for u in result.users)

    def test_summary_stats(self, result):
        assert 0.0 <= result.median_f1 <= 1.0
        assert result.count_above(0.0) >= result.count_above(0.5)

    def test_render(self, result):
        assert "Fig. 10" in result.render()


class TestFig11:
    @pytest.fixture(scope="class")
    def result(self, tiny_context):
        return fig11_delta.run(tiny_context)

    def test_three_distances(self, result):
        assert set(result.deltas) == {0, 1, 2}

    def test_thirty_queries_each(self, result, tiny_context):
        for deltas in result.deltas.values():
            assert len(deltas) == len(tiny_context.dataset.queries)

    def test_distance0_under_retrieves(self, result):
        assert result.average_delta(0) < result.average_delta(2)

    def test_render(self, result):
        assert "Fig. 11" in result.render()


class TestAblations:
    @pytest.fixture(scope="class")
    def result(self, tiny_context):
        return ablations.run(tiny_context)

    def test_all_variants_present(self, result):
        assert set(result.table) == set(ablations.VARIANTS)

    def test_delta_map_zero_for_paper(self, result):
        assert result.delta_map("paper") == 0.0

    def test_render(self, result):
        assert "Ablations" in result.render()
