"""Command-line interface: one subcommand per solver or translation, each
one row of `COMMANDS`.  `main` loads the row's document, calls its handler
and writes the result: a record as a document, or a dict as a report.

Reports are JSON with sorted keys, so identical inputs give byte-identical
output.  Exit codes: 0 success, 1 a failed check, 2 validation failure, 3
budget or enumeration bound exhausted.

A run builds the parser of its own subcommand only, and only `check` loads
the oracle.

`main` runs a command (load, handler and write) with the cyclic garbage
collector paused and gives the caller back its state afterwards.  Every
record, table, row, JSON tree and report a command builds is acyclic and
freed by reference counting, so the collector finds nothing there; but a
command that reads, builds or writes tables of thousands of rows triggers
it over and over, and each time it scans every object still alive.
"""

import argparse
import functools
import gc
import json
import sys

from . import bridge, cpnet, pgame, serialize, softcsp
from .errors import EnumerationLimitError, OptiformError, ValidationError

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_EXHAUSTED = 3


def _load(path, kinds):
    kind, obj = serialize.load_path(path)
    if kind not in kinds:
        raise ValidationError("%s holds a %s document, expected %s"
                              % (path, kind, " or ".join(kinds)))
    return kind, obj


def _payoffs(game, s):
    return {
        p: serialize.payoff_to_json(game, game.payoff(i, s))
        for i, p in enumerate(game.players)
    }


def _elimination_report(mode, names, trace, domains_key, domains):
    return {
        "mode": mode,
        "rounds": [
            {names[i]: r for i, r in enumerate(round_) if r} for round_ in trace
        ],
        domains_key: {n: list(d) for n, d in zip(names, domains)},
        "solved": all(len(d) == 1 for d in domains),
    }


def translation(module, name):
    """The handler of a subcommand that writes `module.name` of its document.
    The function is looked up at each call, like every library call here, so
    a wrapper put on the module later (bench/spans.py) is the one called."""
    return lambda args, kind, obj: getattr(module, name)(obj)


def cmd_scsp_solve(args, kind, problem):
    return {
        "optimal": [
            {"assignment": list(s),
             "preference": serialize.payload_to_json(p.spec, p.payload)}
            for s, p in softcsp.optimal_solutions(problem)
        ],
    }


def cmd_scsp_join(args, kind, problem):
    return softcsp.join(problem, args.other)


def cmd_cpnet_optimal(args, kind, net):
    optimal = cpnet.optimal_outcomes(net)
    return {"eligible": bool(optimal), "optimal": [list(o) for o in optimal]}


def cmd_cpnet_sweep(args, kind, net):
    return {"outcome": list(cpnet.sweep_optimal(net))}


def cmd_cpnet_eligible(args, kind, net):
    return {"eligible": cpnet.is_eligible(net)}


def cmd_cpnet_eliminate(args, kind, net):
    trace = []
    final = cpnet.reduce_to_fixpoint(net, args.mode, trace)
    report = _elimination_report(args.mode, net.variables, trace, "domains", final.domains)
    report["outcome"] = [d[0] for d in final.domains] if report["solved"] else None
    return report


def _outcome(net, text):
    """The outcome of a comma-separated --better or --worse: each field read
    as the value of its variable's domain whose text it is (a string is its
    own text, a number its JSON text), or left as it is when none is."""
    fields = text.split(",")
    named = [{v if isinstance(v, str) else json.dumps(v): v for v in dom} for dom in net.domains]
    return tuple(named[k].get(f, f) if k < len(named) else f for k, f in enumerate(fields))


def cmd_cpnet_dominates(args, kind, net):
    if args.budget < 0:
        raise ValidationError("--budget must be at least 0, not %d" % args.budget)
    alpha, beta = _outcome(net, args.better), _outcome(net, args.worse)
    result = cpnet.dominates(net, alpha, beta, args.budget)
    report = {"better": list(alpha), "worse": list(beta),
              "result": result if isinstance(result, str) else bool(result)}
    return (report, EXIT_EXHAUSTED) if result == cpnet.BUDGET_EXHAUSTED else report


def cmd_game_nash(args, kind, game):
    if kind == "ppgame":
        # at a parametrized Nash equilibrium every strategy tops the row it
        # selects, so each player's best response is its own strategy
        report = [{"joint_strategy": list(s), "best_responses": dict(zip(game.players, s))}
                  for s in pgame.nash_equilibria_pp(game)]
    else:
        report = [{"joint_strategy": list(s), "payoffs": _payoffs(game, s)}
                  for s in pgame.nash_equilibria_payoff(game)]
    return {"game_kind": kind, "nash": report}


def cmd_game_pareto(args, kind, game):
    return {
        "pareto": [
            {"joint_strategy": list(s), "payoffs": _payoffs(game, s)}
            for s in pgame.pareto_efficient(game)
        ],
    }


def cmd_game_eliminate(args, kind, game):
    trace = []
    final = pgame.reduce_pp_fixpoint(game, args.mode, trace)
    return _elimination_report(args.mode, game.players, trace, "strategies", final.strategies)


def cmd_game_hierarchical(args, kind, game):
    flag, levels = pgame.is_hierarchical(game)
    return {"hierarchical": flag,
            "levels": None if levels is None else {game.players[i]: lv for i, lv in levels.items()}}


def _offset(args):
    """The --offset value, read like a plain payoff in a document, or None."""
    if args.offset is None:
        return None
    return serialize.payload_from_json(None, args.offset, "--offset")


def cmd_map_to_scsp(args, kind, game):
    return bridge.scsp_of_game(game, _offset(args))


def cmd_pareto_nash(args, kind, game):
    return {
        "equilibria": [
            {"joint_strategy": list(s),
             "preference": serialize.payload_to_json(p.spec, p.payload)}
            for s, p in bridge.pareto_nash(game, _offset(args))
        ],
    }


def cmd_tech_game(args, kind, graph):
    return pgame.tech_game(graph, args.k)


def cmd_well_structured(args, kind, graph):
    flag, witness = pgame.is_well_structured(graph)
    return {"well_structured": flag, "levels": witness}


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


def cmd_check(args, kind, obj):
    from . import oracle

    results = oracle.run_suite(args.theorem, _parse_seed_range(args.seeds))
    failures = {seed: v.detail for seed, v in results.items() if not v.ok}
    report = {
        "theorem": args.theorem,
        "passed": sum(1 for v in results.values() if v.ok and not v.skipped),
        "skipped": sum(1 for v in results.values() if v.skipped),
        "failed": failures,
    }
    return (report, 1) if failures else report


_MODE = (("--mode",), {"choices": ("nbr", "s"), "default": "nbr"})
_OFFSET = (("--offset",), {"type": str, "default": None})

#: name -> (the document kinds it reads, its handler, its other arguments as
#: (flags, add_argument options) pairs), in the usage's order.  `main` calls
#: `handler(args, kind, obj)`, which returns a result or (result, exit code).
#: `check` reads no document; `build_parser` adds its --theorem.
COMMANDS = {
    "scsp-solve": (("scsp",), cmd_scsp_solve, ()),
    "scsp-join": (("scsp",), cmd_scsp_join, ((("other",), {"help": "second instance document"}),)),
    "cpnet-optimal": (("cpnet",), cmd_cpnet_optimal, ()),
    "cpnet-sweep": (("cpnet",), cmd_cpnet_sweep, ()),
    "cpnet-eligible": (("cpnet",), cmd_cpnet_eligible, ()),
    "cpnet-opt-constraints": (("cpnet",), translation(cpnet, "optimality_constraints"), ()),
    "cpnet-reduce": (("cpnet",), translation(cpnet, "reduce"), ()),
    "cpnet-eliminate": (("cpnet",), cmd_cpnet_eliminate, (_MODE,)),
    "cpnet-dominates": (("cpnet",), cmd_cpnet_dominates, (
        (("--budget",), {"type": int, "default": cpnet.DEFAULT_DOMINANCE_BUDGET}),
        (("--better",), {"required": True, "help": "comma-separated outcome, e.g. a,b,c,d"}),
        (("--worse",), {"required": True}),
    )),
    "game-nash": (("ppgame", "payoffgame"), cmd_game_nash, ()),
    "game-pareto": (("payoffgame",), cmd_game_pareto, ()),
    "game-eliminate": (("ppgame",), cmd_game_eliminate, (_MODE,)),
    "game-hierarchical": (("ppgame",), cmd_game_hierarchical, ()),
    "to-game": (("cpnet",), translation(bridge, "game_of_cpnet"), ()),
    "to-cpnet": (("ppgame",), translation(bridge, "cpnet_of_game"), ()),
    "map-local": (("scsp",), translation(bridge, "local_map"), ()),
    "map-global": (("scsp",), translation(bridge, "global_map"), ()),
    "map-to-scsp": (("payoffgame",), cmd_map_to_scsp, (_OFFSET,)),
    "regret-constraints": (("payoffgame",), translation(bridge, "regret_constraints"), ()),
    "pareto-nash": (("payoffgame",), cmd_pareto_nash, (_OFFSET,)),
    "tech-game": (("graph",), cmd_tech_game, ((("--k",), {"type": int, "required": True}),)),
    "well-structured": (("graph",), cmd_well_structured, ()),
    "check": ((), cmd_check, (
        (("--seeds",), {"default": "1..100", "help": "single seed or inclusive range A..B"}),
    )),
}


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
    for name in (subcommand,) if subcommand in COMMANDS else COMMANDS:
        kinds, _, arguments = COMMANDS[name]
        p = sub.add_parser(name)
        if kinds:
            p.add_argument("file", help="instance document")
        if name == "check":
            from . import oracle

            p.add_argument("--theorem", required=True, choices=sorted(oracle.THEOREMS))
        for flags, options in arguments:
            p.add_argument(*flags, **options)
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    args, extra = build_parser(argv[0] if argv else None).parse_known_args(argv)
    if extra:  # the full parser reports them, its usage listing every subcommand
        args = build_parser().parse_args(argv)
    kinds, handler, _ = COMMANDS[args.subcommand]
    collecting = gc.isenabled()
    gc.disable()
    try:
        kind, obj = _load(args.file, kinds) if kinds else (None, None)
        if "other" in args:  # the second document of scsp-join
            args.other = _load(args.other, kinds)[1]
        result = handler(args, kind, obj)
        result, code = result if isinstance(result, tuple) else (result, EXIT_OK)
        if isinstance(result, dict):
            result["command"] = args.subcommand
            sys.stdout.write(serialize.text_of(result))
        else:
            sys.stdout.write(serialize.dumps(result))
        return code
    except EnumerationLimitError as exc:
        print("bound exhausted: %s" % exc, file=sys.stderr)
        return EXIT_EXHAUSTED
    except OptiformError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INVALID
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INVALID
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
