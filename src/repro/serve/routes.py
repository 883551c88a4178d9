"""The gateway's endpoint handlers.

Every workload the repo can serve, reachable over a socket:

========================  ======================================================
``POST /v1/query``        one expertise need → ranked experts (Eq. 3)
``POST /v1/query/batch``  many needs in one request, answered in order
                          through ``find_experts_batch``
``POST /v1/observe``      append one streamed resource to the finder's
                          write buffer
``POST /v1/crowd/route``  question routing over the ranking (Fig.-1 scenario)
``POST /v1/crowd/jury``   jury selection over the ranking (Cao et al.)
``POST /v1/crowd/team``   team formation over several needs (Lappas et al.)
``GET  /v1/metrics``      ServiceStats + gateway counters, one JSON document
``GET  /healthz``         liveness (always 200 while the process runs)
``GET  /readyz``          readiness (503 until the first snapshot generation
                          is fully loaded)
``POST /admin/reload``    load the snapshot's next generation and swap
========================  ======================================================

``/v1/query`` ranks inline, on the event-loop thread. At 100,000
resources one need's p50 is about 1.6 ms as loaded and 2.7 ms after
3,000 observes, in process on 2 vCPUs
(``benchmarks/results/BENCH_scale.json``). The service's one lock
serializes every query anyway, so a hop to an executor thread would
only add two thread switches to each answer. Inline, a query may
wait on that lock for one executor-side batch need or observe, as
``/v1/metrics`` does when it reads the service's stats. Batch (up to
``max_batch_needs`` rankings), observe (a seal with compaction can take
tens of milliseconds) and the crowd endpoints (a planner on top of one
or more rankings) run in the executor (:func:`_compute`): their cost
grows with the request, and inline they would hold up ``/healthz``,
``/readyz`` and every other connection. Each request captures its
generation first, which is what lets a concurrent reload swap without
tearing it.
"""

from __future__ import annotations

import asyncio
import functools
import json
from collections.abc import Callable, Mapping
from types import EllipsisType
from typing import TYPE_CHECKING, Any, TypeVar

from repro.core.expert_finder import _UNSET
from repro.core.ranking import ExpertScore
from repro.crowd.jury import JurorProfile, JurySelector
from repro.crowd.routing import (
    QuestionRouter,
    RoutingStrategy,
    default_contact_models,
)
from repro.crowd.team_formation import TeamFormation
from repro.serve.router import (
    HttpError,
    Request,
    Response,
    Router,
    opt_nonnegative_int,
    opt_number,
    opt_positive_int,
    opt_str,
    opt_unit_float,
    parse_json_object,
    reject_unknown_fields,
    require_str,
    require_str_list,
)

if TYPE_CHECKING:
    from repro.serve.app import ServeApp

T = TypeVar("T")


def _expert_dict(expert: ExpertScore) -> dict[str, Any]:
    return {
        "candidate_id": expert.candidate_id,
        "score": expert.score,
        "supporting_resources": expert.supporting_resources,
    }


def _window_param(payload: Mapping[str, Any]) -> int | float | None | EllipsisType:
    """The window field keeps the finder's three-way semantics on the
    wire: absent → the configured window, ``null`` → no window, an
    integer → absolute resource count, a float in (0, 1] → fraction."""
    if "window" not in payload:
        return _UNSET
    value = payload["window"]
    if value is None:
        return None
    if isinstance(value, bool):
        raise HttpError(400, "invalid_field", "window must be a number or null")
    if isinstance(value, int):
        if value < 1:
            raise HttpError(
                400, "invalid_field", "integer window must be positive"
            )
        return value
    if isinstance(value, float):
        if not 0.0 < value <= 1.0:
            raise HttpError(
                400, "invalid_field", "fractional window must be in (0, 1]"
            )
        return value
    raise HttpError(400, "invalid_field", "window must be a number or null")


def _ranking_params(
    payload: Mapping[str, Any],
) -> dict[str, Any]:
    return {
        "top_k": opt_positive_int(payload, "top_k"),
        "alpha": opt_unit_float(payload, "alpha"),
        "window": _window_param(payload),
    }


async def _compute(fn: Callable[[], T]) -> T:
    """Run finder/crowd work whose cost grows with the request (batch,
    observe, crowd) in the executor, so the loop keeps answering probes
    and other connections meanwhile. *fn* holds the service of the
    generation its request captured, so a reload meanwhile never tears
    the request."""
    return await asyncio.get_running_loop().run_in_executor(None, fn)


def _crowd_error(exc: Exception) -> HttpError:
    """Crowd-module validation failures are client errors: the inputs
    (candidate sets, budgets, skills) came off the wire."""
    return HttpError(400, "invalid_input", str(exc))


def batch_cost(request: Request) -> float:
    """A batch spends one token per need — it does that much ranking
    work. Unparseable bodies cost one token; the handler 400s them."""
    try:
        payload = json.loads(request.body)
        needs = payload.get("needs")
    except (ValueError, UnicodeDecodeError, AttributeError):
        return 1.0
    return float(max(1, len(needs))) if isinstance(needs, list) else 1.0


def build_router(app: "ServeApp") -> Router:
    router = Router()

    # -- query workloads ---------------------------------------------------------

    async def query(request: Request) -> Response:
        generation = app.reloader.require_current()
        payload = parse_json_object(request)
        reject_unknown_fields(payload, ("need", "top_k", "alpha", "window"))
        need = require_str(payload, "need")
        params = _ranking_params(payload)
        experts = generation.service.find_experts(need, **params)
        return Response(
            200,
            {
                "experts": [_expert_dict(e) for e in experts],
                "generation": generation.number,
            },
        )

    async def query_batch(request: Request) -> Response:
        generation = app.reloader.require_current()
        payload = parse_json_object(request)
        reject_unknown_fields(payload, ("needs", "top_k", "alpha", "window"))
        needs = require_str_list(payload, "needs")
        if len(needs) > app.config.max_batch_needs:
            raise HttpError(
                400,
                "invalid_field",
                f"needs is limited to {app.config.max_batch_needs} entries "
                f"per request, got {len(needs)}",
            )
        params = _ranking_params(payload)
        results = await _compute(
            functools.partial(
                generation.service.find_experts_batch, needs, **params
            ),
        )
        return Response(
            200,
            {
                "results": [
                    [_expert_dict(e) for e in experts] for experts in results
                ],
                "generation": generation.number,
            },
        )

    async def observe(request: Request) -> Response:
        generation = app.reloader.require_current()
        payload = parse_json_object(request)
        reject_unknown_fields(
            payload, ("node_id", "text", "supporters", "language")
        )
        node_id = require_str(payload, "node_id")
        text = require_str(payload, "text")
        language = opt_str(payload, "language")
        raw = payload.get("supporters")
        if not isinstance(raw, list) or not raw:
            raise HttpError(
                400,
                "invalid_field",
                "supporters must be a non-empty array of [candidate_id, "
                "distance] pairs",
            )
        supporters: list[tuple[str, int]] = []
        for item in raw:
            if (
                not isinstance(item, list)
                or len(item) != 2
                or not isinstance(item[0], str)
                or not item[0]
                or isinstance(item[1], bool)
                or not isinstance(item[1], int)
                or item[1] < 0
            ):
                raise HttpError(
                    400,
                    "invalid_field",
                    "each supporter must be [candidate_id, distance>=0], "
                    f"got {item!r}",
                )
            supporters.append((item[0], item[1]))
        try:
            indexed = await _compute(
                functools.partial(
                    generation.service.observe,
                    node_id,
                    text,
                    supporters,
                    language=language,
                ),
            )
        except ValueError as exc:
            raise HttpError(400, "invalid_input", str(exc))
        except KeyError as exc:
            # an unknown supporter; str() of a KeyError would quote the
            # message a second time
            raise HttpError(400, "invalid_input", str(exc.args[0]))
        return Response(
            200, {"indexed": indexed, "generation": generation.number}
        )

    # -- crowd workloads ---------------------------------------------------------

    async def crowd_route(request: Request) -> Response:
        generation = app.reloader.require_current()
        payload = parse_json_object(request)
        reject_unknown_fields(
            payload,
            ("need", "strategy", "top_k", "target_probability", "wave_size",
             "seed"),
        )
        need = require_str(payload, "need")
        strategy_name = payload.get("strategy", "hybrid")
        try:
            strategy = RoutingStrategy(strategy_name)
        except ValueError:
            raise HttpError(
                400,
                "invalid_field",
                f"strategy must be one of "
                f"{', '.join(s.value for s in RoutingStrategy)}, "
                f"got {strategy_name!r}",
            )
        top_k = opt_positive_int(payload, "top_k") or 5
        wave_size = opt_positive_int(payload, "wave_size") or 2
        target = opt_unit_float(payload, "target_probability")
        seed = opt_nonnegative_int(payload, "seed") or 0

        def plan_route() -> dict[str, Any]:
            ranked = generation.service.find_experts(need, top_k=top_k)
            if not ranked:
                raise HttpError(
                    404, "no_experts", "no candidate shows matching expertise"
                )
            models = default_contact_models(
                [e.candidate_id for e in ranked], seed=seed
            )
            kwargs: dict[str, Any] = {"top_k": top_k, "wave_size": wave_size}
            if target is not None:
                kwargs["target_probability"] = target
            try:
                plan = QuestionRouter(models).plan(ranked, strategy, **kwargs)
            except (ValueError, KeyError) as exc:
                raise _crowd_error(exc)
            return {
                "strategy": plan.strategy.value,
                "waves": [list(wave) for wave in plan.waves],
                "answer_probability": plan.answer_probability,
                "expected_latency": plan.expected_latency,
                "contacts": plan.contacts,
                "generation": generation.number,
            }

        return Response(200, await _compute(plan_route))

    async def crowd_jury(request: Request) -> Response:
        generation = app.reloader.require_current()
        payload = parse_json_object(request)
        reject_unknown_fields(
            payload,
            ("need", "top_k", "budget", "max_size", "best_error",
             "worst_error"),
        )
        need = require_str(payload, "need")
        top_k = opt_positive_int(payload, "top_k") or 10
        budget = opt_number(payload, "budget")
        max_size = opt_positive_int(payload, "max_size")
        best_error = opt_unit_float(payload, "best_error")
        worst_error = opt_unit_float(payload, "worst_error")
        best = 0.05 if best_error is None else best_error
        worst = 0.45 if worst_error is None else worst_error
        if not best <= worst <= 0.5:
            raise HttpError(
                400,
                "invalid_field",
                "need best_error <= worst_error <= 0.5",
            )
        if budget is not None and budget <= 0:
            raise HttpError(
                400, "invalid_field", "budget must be positive when given"
            )

        def select_jury() -> dict[str, Any]:
            ranked = generation.service.find_experts(need, top_k=top_k)
            if not ranked:
                raise HttpError(
                    404, "no_experts", "no candidate shows matching expertise"
                )
            # expertise → error rate: the strongest-scored candidate errs
            # at best_error, a hypothetical zero-score one at worst_error
            top_score = ranked[0].score
            jurors = [
                JurorProfile(
                    candidate_id=e.candidate_id,
                    error_rate=worst - (worst - best) * (e.score / top_score),
                )
                for e in ranked
            ]
            try:
                decision = JurySelector(jurors).select(
                    budget=float("inf") if budget is None else budget,
                    max_size=max_size,
                )
            except ValueError as exc:
                raise _crowd_error(exc)
            return {
                "members": list(decision.members),
                "jury_error_rate": decision.jury_error_rate,
                "total_cost": decision.total_cost,
                "generation": generation.number,
            }

        return Response(200, await _compute(select_jury))

    async def crowd_team(request: Request) -> Response:
        generation = app.reloader.require_current()
        payload = parse_json_object(request)
        reject_unknown_fields(
            payload, ("skills", "algorithm", "top_k_per_skill")
        )
        skills = require_str_list(payload, "skills")
        algorithm = payload.get("algorithm", "greedy_cover")
        if algorithm not in ("greedy_cover", "rarest_first"):
            raise HttpError(
                400,
                "invalid_field",
                "algorithm must be greedy_cover or rarest_first, "
                f"got {algorithm!r}",
            )
        top_k = opt_positive_int(payload, "top_k_per_skill") or 5

        def form_team() -> dict[str, Any]:
            holders: dict[str, set[str]] = {}
            for skill in skills:
                ranked = generation.service.find_experts(skill, top_k=top_k)
                if not ranked:
                    raise HttpError(
                        404,
                        "no_experts",
                        f"no candidate shows expertise for skill {skill!r}",
                    )
                for expert in ranked:
                    holders.setdefault(expert.candidate_id, set()).add(skill)
            graph = app.team_graph(generation)
            try:
                formation = TeamFormation(holders, graph)
                if algorithm == "greedy_cover":
                    team = formation.greedy_cover(skills)
                else:
                    team = formation.rarest_first(skills)
            except (ValueError, KeyError) as exc:
                raise _crowd_error(exc)
            return {
                "members": sorted(team.members),
                "required_skills": sorted(team.required_skills),
                "diameter_cost": team.diameter_cost,
                "mst_cost": team.mst_cost,
                "generation": generation.number,
            }

        return Response(200, await _compute(form_team))

    # -- operations --------------------------------------------------------------

    async def metrics(request: Request) -> Response:
        generation = app.reloader.current
        service_stats = (
            generation.service.stats.to_dict() if generation is not None else None
        )
        return Response(
            200,
            {
                "ready": app.reloader.ready,
                "generation": 0 if generation is None else generation.number,
                "snapshot_generation": (
                    None if generation is None else generation.label
                ),
                "service": service_stats,
                "gateway": app.metrics.snapshot(),
            },
        )

    async def healthz(request: Request) -> Response:
        return Response(200, {"status": "ok"})

    async def readyz(request: Request) -> Response:
        generation = app.reloader.current
        if generation is None:
            return Response(503, {"ready": False})
        return Response(200, {"ready": True, "generation": generation.number})

    async def admin_reload(request: Request) -> Response:
        generation = await app.trigger_reload()
        return Response(
            200,
            {
                "reloaded": True,
                "generation": generation.number,
                "snapshot_generation": generation.label,
            },
        )

    router.add("POST", "/v1/query", query, limited=True)
    router.add("POST", "/v1/query/batch", query_batch, limited=True)
    router.add("POST", "/v1/observe", observe, limited=True)
    router.add("POST", "/v1/crowd/route", crowd_route, limited=True)
    router.add("POST", "/v1/crowd/jury", crowd_jury, limited=True)
    router.add("POST", "/v1/crowd/team", crowd_team, limited=True)
    router.add("GET", "/v1/metrics", metrics)
    router.add("GET", "/healthz", healthz)
    router.add("GET", "/readyz", readyz)
    router.add("POST", "/admin/reload", admin_reload)
    return router
