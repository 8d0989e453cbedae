"""Command-line interface: one subcommand per solver or translation.

Reports are JSON with sorted keys, so identical inputs give byte-identical
output.  Exit codes: 0 success, 2 validation failure, 3 budget or
enumeration bound exhausted.

A run builds the parser of its own subcommand only, and only `check` loads
the oracle.
"""

import argparse
import functools
import json
import sys

from . import bridge, cpnet, pgame, serialize, softcsp
from .errors import EnumerationLimitError, OptiformError, ValidationError

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_EXHAUSTED = 3


def _emit(report):
    sys.stdout.write(serialize.text_of(report))


def _load(path, *kinds):
    kind, obj = serialize.load_path(path)
    if kinds and kind not in kinds:
        raise ValidationError(
            "%s holds a %s document, expected %s" % (path, kind, " or ".join(kinds))
        )
    return kind, obj


def _payoffs(game, s):
    return {
        p: serialize.payoff_to_json(game, game.payoff(i, s))
        for i, p in enumerate(game.players)
    }


def _elimination_report(command, mode, names, trace, domains_key, domains):
    return {
        "command": command,
        "mode": mode,
        "rounds": [
            {names[i]: r for i, r in enumerate(round_) if r} for round_ in trace
        ],
        domains_key: {n: list(d) for n, d in zip(names, domains)},
        "solved": all(len(d) == 1 for d in domains),
    }


# ------------------------------------------------------------------ handlers

def cmd_translate(kind, translate, args):
    """Load a `kind` document and write `translate` of it as a document."""
    _, obj = _load(args.file, kind)
    sys.stdout.write(serialize.dumps(translate(obj)))
    return EXIT_OK


def cmd_scsp_solve(args):
    _, problem = _load(args.file, "scsp")
    _emit({
        "command": "scsp-solve",
        "optimal": [
            {"assignment": list(s),
             "preference": serialize.payload_to_json(p.spec, p.payload)}
            for s, p in softcsp.optimal_solutions(problem)
        ],
    })
    return EXIT_OK


def cmd_scsp_join(args):
    _, p1 = _load(args.file, "scsp")
    _, p2 = _load(args.other, "scsp")
    sys.stdout.write(serialize.dumps(softcsp.join(p1, p2)))
    return EXIT_OK


def cmd_cpnet_optimal(args):
    _, net = _load(args.file, "cpnet")
    optimal = cpnet.optimal_outcomes(net)
    _emit({
        "command": "cpnet-optimal",
        "eligible": bool(optimal),
        "optimal": [list(o) for o in optimal],
    })
    return EXIT_OK


def cmd_cpnet_sweep(args):
    _, net = _load(args.file, "cpnet")
    _emit({"command": "cpnet-sweep", "outcome": list(cpnet.sweep_optimal(net))})
    return EXIT_OK


def cmd_cpnet_eligible(args):
    _, net = _load(args.file, "cpnet")
    _emit({"command": "cpnet-eligible", "eligible": cpnet.is_eligible(net)})
    return EXIT_OK


def cmd_cpnet_eliminate(args):
    _, net = _load(args.file, "cpnet")
    trace = []
    final = cpnet.reduce_to_fixpoint(net, args.mode, trace)
    report = _elimination_report("cpnet-eliminate", args.mode, net.variables, trace,
                                 "domains", final.domains)
    report["outcome"] = [d[0] for d in final.domains] if report["solved"] else None
    _emit(report)
    return EXIT_OK


def _outcome(net, text):
    """The outcome of a comma-separated --better or --worse: each field read
    as the value of its variable's domain whose text it is (a string is its
    own text, a number its JSON text), or left as it is when none is."""
    fields = text.split(",")
    named = [{v if isinstance(v, str) else json.dumps(v): v for v in dom} for dom in net.domains]
    return tuple(named[k].get(f, f) if k < len(named) else f for k, f in enumerate(fields))


def cmd_cpnet_dominates(args):
    _, net = _load(args.file, "cpnet")
    alpha, beta = _outcome(net, args.better), _outcome(net, args.worse)
    result = cpnet.dominates(net, alpha, beta, args.budget)
    _emit({
        "command": "cpnet-dominates",
        "better": list(alpha),
        "worse": list(beta),
        "result": result if isinstance(result, str) else bool(result),
    })
    return EXIT_EXHAUSTED if result == cpnet.BUDGET_EXHAUSTED else EXIT_OK


def cmd_game_nash(args):
    kind, game = _load(args.file, "ppgame", "payoffgame")
    if kind == "ppgame":
        # at a parametrized Nash equilibrium every strategy tops the row it
        # selects, so each player's best response is its own strategy
        report = [{"joint_strategy": list(s), "best_responses": dict(zip(game.players, s))}
                  for s in pgame.nash_equilibria_pp(game)]
    else:
        report = [{"joint_strategy": list(s), "payoffs": _payoffs(game, s)}
                  for s in pgame.nash_equilibria_payoff(game)]
    _emit({"command": "game-nash", "game_kind": kind, "nash": report})
    return EXIT_OK


def cmd_game_pareto(args):
    _, game = _load(args.file, "payoffgame")
    _emit({
        "command": "game-pareto",
        "pareto": [
            {"joint_strategy": list(s), "payoffs": _payoffs(game, s)}
            for s in pgame.pareto_efficient(game)
        ],
    })
    return EXIT_OK


def cmd_game_eliminate(args):
    _, game = _load(args.file, "ppgame")
    trace = []
    final = pgame.reduce_pp_fixpoint(game, args.mode, trace)
    _emit(_elimination_report("game-eliminate", args.mode, game.players, trace,
                              "strategies", final.strategies))
    return EXIT_OK


def cmd_game_hierarchical(args):
    _, game = _load(args.file, "ppgame")
    flag, levels = pgame.is_hierarchical(game)
    _emit({
        "command": "game-hierarchical",
        "hierarchical": flag,
        "levels": None if levels is None
        else {game.players[i]: lv for i, lv in levels.items()},
    })
    return EXIT_OK


def _offset(args):
    """The --offset value, read like a plain payoff in a document, or None."""
    if args.offset is None:
        return None
    return serialize.payload_from_json(None, args.offset, "--offset")


def cmd_map_to_scsp(args):
    _, game = _load(args.file, "payoffgame")
    sys.stdout.write(serialize.dumps(bridge.scsp_of_game(game, _offset(args))))
    return EXIT_OK


def cmd_pareto_nash(args):
    _, game = _load(args.file, "payoffgame")
    _emit({
        "command": "pareto-nash",
        "equilibria": [
            {"joint_strategy": list(s),
             "preference": serialize.payload_to_json(p.spec, p.payload)}
            for s, p in bridge.pareto_nash(game, _offset(args))
        ],
    })
    return EXIT_OK


def cmd_tech_game(args):
    _, (graph, _) = _load(args.file, "graph")
    sys.stdout.write(serialize.dumps(pgame.tech_game(graph, args.k)))
    return EXIT_OK


def cmd_well_structured(args):
    _, (graph, levels) = _load(args.file, "graph")
    flag, witness = pgame.is_well_structured(graph, levels)
    _emit({
        "command": "well-structured",
        "well_structured": flag,
        "levels": witness,
    })
    return EXIT_OK


def _parse_seed_range(text):
    """The seeds of --seeds: one seed, or a nonempty inclusive range A..B."""
    lo, dots, hi = text.partition("..")
    try:
        seeds = range(int(lo), int(hi if dots else lo) + 1)
    except ValueError:
        seeds = range(0)
    if not seeds:
        raise ValidationError("--seeds takes a seed or a range A..B with A <= B, got %r" % text)
    return seeds


def cmd_check(args):
    from . import oracle

    seeds = _parse_seed_range(args.seeds)
    results = oracle.run_suite(args.theorem, seeds)
    failures = {
        seed: v.detail for seed, v in results.items() if not v.ok
    }
    _emit({
        "command": "check",
        "theorem": args.theorem,
        "passed": sum(1 for v in results.values() if v.ok and not v.skipped),
        "skipped": sum(1 for v in results.values() if v.skipped),
        "failed": failures,
    })
    return EXIT_OK if not failures else 1


# --------------------------------------------------------------------- wiring

@functools.lru_cache(maxsize=32)  # all 23 subcommands and None, bounded against junk names
def build_parser(subcommand=None):
    """The argument parser.  Given the name of a subcommand it holds that
    subcommand's parser alone; given None or a name that no subcommand has,
    the parsers of all of them, whose names its usage and errors list."""
    parser = argparse.ArgumentParser(
        prog="optiform",
        description="CP-nets, parametrized-preference games and soft "
        "constraints, with the translations between them.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name, handler, *, other=False, mode=False, budget=False,
            offset=False, k=False, outcomes=False, check=False):
        if subcommand not in (None, name):
            return
        p = sub.add_parser(name)
        if not check:
            p.add_argument("file", help="instance document")
        if other:
            p.add_argument("other", help="second instance document")
        if mode:
            p.add_argument("--mode", choices=("nbr", "s"), default="nbr")
        if budget:
            p.add_argument("--budget", type=int,
                           default=cpnet.DEFAULT_DOMINANCE_BUDGET)
        if offset:
            p.add_argument("--offset", type=str, default=None)
        if k:
            p.add_argument("--k", type=int, required=True)
        if outcomes:
            p.add_argument("--better", required=True,
                           help="comma-separated outcome, e.g. a,b,c,d")
            p.add_argument("--worse", required=True)
        if check:
            from . import oracle

            p.add_argument("--theorem", required=True,
                           choices=sorted(oracle.THEOREMS))
            p.add_argument("--seeds", default="1..100",
                           help="single seed or inclusive range A..B")
        p.set_defaults(handler=handler)

    def translation(kind, translate):
        return functools.partial(cmd_translate, kind, translate)

    add("scsp-solve", cmd_scsp_solve)
    add("scsp-join", cmd_scsp_join, other=True)
    add("cpnet-optimal", cmd_cpnet_optimal)
    add("cpnet-sweep", cmd_cpnet_sweep)
    add("cpnet-eligible", cmd_cpnet_eligible)
    add("cpnet-opt-constraints", translation("cpnet", cpnet.optimality_constraints))
    add("cpnet-reduce", translation("cpnet", cpnet.reduce))
    add("cpnet-eliminate", cmd_cpnet_eliminate, mode=True)
    add("cpnet-dominates", cmd_cpnet_dominates, budget=True, outcomes=True)
    add("game-nash", cmd_game_nash)
    add("game-pareto", cmd_game_pareto)
    add("game-eliminate", cmd_game_eliminate, mode=True)
    add("game-hierarchical", cmd_game_hierarchical)
    add("to-game", translation("cpnet", bridge.game_of_cpnet))
    add("to-cpnet", translation("ppgame", bridge.cpnet_of_game))
    add("map-local", translation("scsp", bridge.local_map))
    add("map-global", translation("scsp", bridge.global_map))
    add("map-to-scsp", cmd_map_to_scsp, offset=True)
    add("regret-constraints", translation("payoffgame", bridge.regret_constraints))
    add("pareto-nash", cmd_pareto_nash, offset=True)
    add("tech-game", cmd_tech_game, k=True)
    add("well-structured", cmd_well_structured)
    add("check", cmd_check, check=True)
    if not sub.choices:
        return build_parser()
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    args, extra = build_parser(argv[0] if argv else None).parse_known_args(argv)
    if extra:  # the full parser reports them, its usage listing every subcommand
        args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except EnumerationLimitError as exc:
        print("bound exhausted: %s" % exc, file=sys.stderr)
        return EXIT_EXHAUSTED
    except OptiformError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INVALID
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
