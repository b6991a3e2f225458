"""Command-line front end.

Every subcommand echoes its fully resolved configuration into the output
header and writes results to stdout (progress for long sweeps goes to
stderr).  JSON is the canonical format; CSV and text are derived from it.

Exit codes: 0 success, 2 usage error, 3 cap/budget/timeout exceeded,
4 falsification event (a machine-checked assertion from the underlying
theory failed).
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import os
import sys
import time

from . import errors
from ._search import format_cycles
from .autos import (
    automorphism_generators,
    enumerate_automorphisms,
    index2_subgroup,
    index2_subgroup_count,
    index2_subgroups,
    inversion_automorphism,
    prime_index_subgroups,
    prime_order_subgroups,
)
from .bounds import (
    bounds_suite,
    inverse_closed_count_report,
    prelim_facts_check,
    theorem_lower_bound,
    threshold_scan,
)
from .cayley import (
    bipartition_respected,
    build_cayley,
    connection_set,
    edge_list_text,
)
from .classify import (
    VERDICT_GOOD,
    classify_directed,
    classify_undirected,
    verify_witness,
)
from .groups import (
    SIZE_CAP,
    AbelianGroup,
    Subgroup,
    build_group,
    format_group_spec,
    generated_subgroup,
    invariant_factors_of_orders,
    involution_subgroup,
    parse_group_spec,
)
from .stabilizer import (
    cayley_index,
    minimal_graph_index_target,
    vertex_stabilizer,
)
from .survey import (
    DEFAULT_EXHAUSTIVE_BUDGET,
    DEFAULT_SAMPLES,
    DEFAULT_TABLE_BUDGET,
    SEARCH_CAP,
    TABLE2_FAMILIES,
    _decode_set,
    bipartite_index,
    c26_reduced_search,
    c26_subclaims,
    global_index,
    monte_carlo_proportion,
    unlabeled_count,
    verify_table,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_FALSIFIED = 4

# build_group checks the size cap; main checks the search cap right after,
# for every command that searches, before any other option is read.
_ENV_CAPS = {
    "size_cap": ("BIPCAYLEY_SIZE_CAP", SIZE_CAP),
    "search_cap": ("BIPCAYLEY_SEARCH_CAP", SEARCH_CAP),
}
# the --group commands that run no backtrack over A
_UNSEARCHED = ("group-info", "subgroups")


def _resolve_caps() -> dict:
    caps = {}
    for key, (env, default) in _ENV_CAPS.items():
        raw = os.environ.get(env)
        if not raw:
            caps[key] = default
        elif raw.isdecimal() and int(raw) > 0:
            caps[key] = int(raw)
        else:
            raise errors.BadParameter(
                f"{env} must be a positive integer, not {raw!r}")
    return caps


def _check_cap(caps: dict, size: int) -> None:
    if size > caps["search_cap"]:
        raise errors.CapExceeded(
            f"|A|={size} exceeds BIPCAYLEY_SEARCH_CAP={caps['search_cap']}")


def _int_at_least(low: int):
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"{text} is below {low}")
        return value
    return integer


def _seconds(text: str) -> float:
    value = float(text)
    if not 0 < value < float("inf"):
        raise argparse.ArgumentTypeError(
            f"{text} is not a positive finite number")
    return value


def _budget(text: str) -> int:
    """Budgets accept plain or scientific notation (e.g. 131072 or 1e6)."""
    value = float(text)
    if not 0 <= value < float("inf"):
        raise argparse.ArgumentTypeError(f"{text} is not a finite number >= 0")
    return int(value)


# -- argument parsing helpers ----------------------------------------------------


def parse_subgroup_spec(group: AbelianGroup, spec: str | None) -> Subgroup:
    """``index:k`` (k-th index-2 subgroup in character order) or
    semicolon-separated generator tuples like ``2,0;0,1``."""
    if spec is None:
        raise errors.BadParameter("this command needs --subgroup")
    spec = spec.strip()
    if spec.startswith("index:"):
        try:
            k = int(spec[len("index:"):])
        except ValueError:
            raise errors.GroupSpecError(
                f"{spec!r}: k in index:k must be an integer",
                len("index:")) from None
        count = index2_subgroup_count(group)
        if not 0 <= k < count:
            raise errors.GroupSpecError(
                f"index:{k} out of range; the group has {count} "
                f"index-2 subgroups", len("index:"))
        return index2_subgroup(group, k)
    gens = [_parse_element(group, part, spec)
            for part in spec.split(";") if part.strip()]
    return generated_subgroup(group, gens)


def _parse_element(group: AbelianGroup, part: str, whole: str) -> int:
    coords = [c.strip() for c in part.split(",")]
    if len(coords) != len(group.orders):
        raise errors.GroupSpecError(
            f"element {part!r} needs {len(group.orders)} coordinates",
            whole.find(part))
    try:
        values = [int(c) for c in coords]
    except ValueError as exc:
        raise errors.GroupSpecError(f"bad element {part!r}: {exc}",
                                    whole.find(part)) from None
    if not all(0 <= c < n for c, n in zip(values, group.orders)):
        raise errors.SetOutOfRange(f"element {part!r} has a coordinate "
                                   f"outside 0..n-1 of its factor C_n")
    return group.encode(values)


def parse_set_spec(group: AbelianGroup, sub: Subgroup | None, spec: str) -> int:
    """Connection set: ``all-minus-B``, or elements separated by ``;``
    (single-coordinate groups may separate plain values with commas)."""
    spec = spec.strip()
    if spec in ("", "empty"):
        return 0
    if spec == "all-minus-B":
        if sub is None:
            raise errors.GroupSpecError(
                "all-minus-B needs a --subgroup", 0)
        return sub.complement_bits()
    bits = 0
    if len(group.orders) == 1:
        spec = spec.replace(",", ";")
    for part in spec.split(";"):
        if part.strip():
            bits |= 1 << _parse_element(group, part.strip(), spec)
    return bits


# -- output ----------------------------------------------------------------------


def _flatten(value):
    if isinstance(value, (dict, list, tuple)):
        return json.dumps(value, default=str)
    return value


def emit(payload: dict, fmt: str, out) -> None:
    if fmt == "json":
        json.dump(payload, out, indent=2, default=str)
        out.write("\n")
        return
    config = payload.get("config", {})
    result = payload.get("result")
    if fmt == "csv":
        writer = csv.writer(out, lineterminator="\n")
        for key, val in config.items():
            out.write(f"# {key}={_flatten(val)}\n")
        rows = result if isinstance(result, list) else [result]
        rows = [r if isinstance(r, dict) else {"value": r} for r in rows]
        headers: list[str] = []
        for r in rows:
            for k in r:
                if k not in headers:
                    headers.append(k)
        writer.writerow(headers)
        for r in rows:
            writer.writerow([_flatten(r.get(h, "")) for h in headers])
        return
    for key, val in config.items():
        out.write(f"{key}: {_flatten(val)}\n")
    out.write("--\n")
    rows = result if isinstance(result, list) else [result]
    for r in rows:
        if isinstance(r, dict):
            for k, v in r.items():
                out.write(f"{k}: {_flatten(v)}\n")
        else:
            out.write(f"{r}\n")
        out.write("\n")


def _progress_printer(enabled: bool):
    if not enabled:
        return None

    def cb(done: int, total: int) -> None:
        print(f"progress: {done}/{total}", file=sys.stderr, flush=True)

    return cb


# -- subcommand handlers -----------------------------------------------------------


def _cmd_group_info(args, caps, group) -> tuple[object, int]:
    inv = involution_subgroup(group)
    return {
        "orders": list(group.orders),
        "size": group.size,
        "exponent": group.exponent,
        "invariant_factors": list(invariant_factors_of_orders(group.orders)),
        "involution_subgroup_order": inv.order,
        "index2_subgroup_count": index2_subgroup_count(group),
    }, EXIT_OK


def _cmd_subgroups(args, caps, group) -> tuple[object, int]:
    subs = {"index2": index2_subgroups, "prime-order": prime_order_subgroups,
            "prime-index": prime_index_subgroups}[args.kind](group)
    return [{
        "position": i,
        "order": sub.order,
        "index": sub.index,
        "invariant_factors": list(sub.invariant_factors()),
        "generators": [list(group.decode(g)) for g in sub.generators],
    } for i, sub in enumerate(subs)], EXIT_OK


def _cmd_auts(args, caps, group) -> tuple[object, int]:
    sub = (parse_subgroup_spec(group, args.stabilizing)
           if args.stabilizing else None)
    fixing = (sub.bits,) if sub is not None else ()
    out = {
        "count": automorphism_generators(group, fixing)[1],
        "inversion_is_identity": inversion_automorphism(group).is_identity,
        "inversion_fixed_order": involution_subgroup(group).order,
    }
    if args.list:
        out["generator_images"] = [
            [list(group.decode(alpha(g))) for g in group.generators()]
            for alpha in itertools.islice(
                enumerate_automorphisms(group, fixing),
                50 if args.limit is None else args.limit)]
    return out, EXIT_OK


def _cmd_index(args, caps, group) -> tuple[object, int]:
    sub = parse_subgroup_spec(group, args.subgroup) if args.subgroup else None
    conn = connection_set(group, parse_set_spec(group, sub, args.set))
    if args.mode == "undirected" and not conn.inverse_closed:
        raise errors.NotInverseClosed("undirected mode requires S = -S")
    digraph = build_cayley(group, conn)
    if args.export_graph:
        try:
            with open(args.export_graph, "w", encoding="utf-8") as fh:
                fh.write(edge_list_text(digraph))
        except OSError as exc:
            raise errors.BadParameter(f"cannot write --export-graph "
                                      f"{args.export_graph!r}: {exc!r}") from None
    start = time.monotonic()
    rep = vertex_stabilizer(digraph, timeout=args.timeout)
    elapsed_ms = (time.monotonic() - start) * 1000.0
    out = {
        "group": format_group_spec(group.orders),
        "subgroup": (sorted(group.decode(g) for g in sub.generators)
                     if sub is not None else None),
        "connection_set": sorted(conn.element_tuples()),
        "stabilizer_order": rep.cayley_index,
        "cayley_index": rep.cayley_index,
        "is_drr": rep.cayley_index == 1,
        "generators": [format_cycles(g) for g in rep.stabilizer_generators],
        "elapsed_ms": 0.0 if args.no_timing else round(elapsed_ms, 3),
        "mode": args.mode,
    }
    if args.mode == "undirected":
        target = minimal_graph_index_target(group)
        out["minimal_index_target"] = target
        out["is_minimal_graph_index"] = rep.cayley_index == target
    if sub is not None:
        out["bipartition_respected"] = bipartition_respected(digraph, sub)
    return out, EXIT_OK


def _cmd_classify(args, caps, group) -> tuple[object, int]:
    sub = parse_subgroup_spec(group, args.subgroup)
    bits = parse_set_spec(group, sub, args.set)
    classify = (classify_directed if args.mode == "directed"
                else classify_undirected)
    result = classify(group, sub, bits)
    out = {
        "verdict": result.verdict,
        "witness": result.witness_json(group),
        "witness_verified": verify_witness(group, sub, bits, result,
                                           args.mode),
    }
    code = EXIT_OK if out["witness_verified"] else EXIT_FALSIFIED
    if args.cross_check:
        # GOOD must mean the minimal index; other verdicts make no claim
        index = cayley_index(group, bits)
        target = (1 if args.mode == "directed"
                  else minimal_graph_index_target(group))
        consistent = result.verdict != VERDICT_GOOD or index == target
        out["cross_check"] = {"cayley_index": index, "consistent": consistent}
        if not consistent:
            code = EXIT_FALSIFIED
    out["set"] = _decode_set(group, bits)
    return out, code


def _cmd_bounds(args, caps, group) -> tuple[object, int]:
    if args.thresholds and args.subgroup:
        raise errors.BadParameter("--thresholds reads no --subgroup")
    rows = []
    code = EXIT_OK
    if args.thresholds:
        for mode in ("directed", "undirected"):
            rep = threshold_scan(mode)
            rows.append({"name": f"threshold-{mode}", "group": "", "subgroup": "",
                         "exact": rep.computed_value,
                         "log2_bound": rep.paper_value,
                         "holds": rep.agrees,
                         "note": "exact=computed crossover, log2_bound=paper"})
        return rows, code
    gname = format_group_spec(group.orders)
    sub = parse_subgroup_spec(group, args.subgroup) if args.subgroup else None
    if sub is not None:
        sname = json.dumps([list(group.decode(g)) for g in sub.generators])
        for rep in bounds_suite(group, sub):
            row = rep.row()
            row.update({"group": gname, "subgroup": sname})
            rows.append(row)
            if rep.holds is False:
                code = EXIT_FALSIFIED
        for which in ("directed", "undirected"):
            rows.append({"name": f"lower-bound-{which}", "group": gname,
                         "subgroup": sname,
                         "exact": theorem_lower_bound(which, group, sub),
                         "log2_bound": None, "holds": None})
        icr = inverse_closed_count_report(group, sub)
        rows.append({"name": "inverse-closed-case", "group": gname,
                     "subgroup": sname, "exact": icr["count"],
                     "log2_bound": None, "holds": None,
                     "case": icr["case"]})
    for rep in prelim_facts_check(group):
        row = rep.row()
        row.update({"group": gname, "subgroup": ""})
        rows.append(row)
        if rep.holds is False:
            code = EXIT_FALSIFIED
    return rows, code


def _cmd_table(args, caps, group) -> tuple[object, int]:
    results = verify_table(args.which, budget=args.budget,
                           include_extended=args.include_extended,
                           threads=args.threads, search_cap=caps["search_cap"],
                           progress=_progress_printer(args.progress))
    rows = [r.to_json() for r in results]
    if args.which == 2:
        for fam in TABLE2_FAMILIES:
            rows.append({"table": 2, "group": fam[0], "subgroup": fam[1],
                         "expected": None, "computed": None, "matches": None,
                         "status": "family", "reason": fam[2], "sets": None})
    code = EXIT_OK
    if any(r.get("matches") is False for r in rows):
        code = EXIT_FALSIFIED
    return rows, code


def _cmd_survey(args, caps, group) -> tuple[object, int]:
    if args.all_subgroups and args.subgroup:
        raise errors.BadParameter("--all-subgroups reads no --subgroup")
    kwargs = ({"samples": args.samples, "seed": args.seed}
              if args.method == "random" else {"budget": args.budget})
    kwargs.update(threads=args.threads, timeout=args.timeout,
                  progress=_progress_printer(args.progress))
    if args.all_subgroups:
        return global_index(group, args.mode, method=args.method,
                            **kwargs), EXIT_OK
    sub = parse_subgroup_spec(group, args.subgroup)
    res = bipartite_index(group, sub, args.mode, method=args.method, **kwargs)
    return res.to_json(), EXIT_OK


def _cmd_sample(args, caps, group) -> tuple[object, int]:
    sub = parse_subgroup_spec(group, args.subgroup)
    est = monte_carlo_proportion(group, sub, args.mode,
                                 samples=args.samples, seed=args.seed)
    return est.to_json(), EXIT_OK


def _cmd_unlabeled(args, caps, group) -> tuple[object, int]:
    sub = parse_subgroup_spec(group, args.subgroup)
    rep = unlabeled_count(group, sub, args.mode)
    return rep.to_json(), EXIT_OK


def _cmd_c26(args, caps, group) -> tuple[object, int]:
    if args.checkpoint and not (args.full or args.budget):
        raise errors.BadParameter(
            "--checkpoint needs --full or a positive --budget")
    if args.full or args.budget:
        _check_cap(caps, 64)  # |C2^6|
        rep = c26_reduced_search(budget=args.budget,
                                 checkpoint=args.checkpoint,
                                 threads=args.threads,
                                 progress=_progress_printer(args.progress))
    else:
        rep = c26_subclaims()
    out = rep.to_json()
    ok = (rep.candidate_count == 7_701_512
          and sorted(rep.orbit_sizes) == [6, 20]
          and rep.basis_transitivity_count_match)
    out["subclaims_ok"] = ok
    return out, EXIT_OK if ok else EXIT_FALSIFIED


# -- parser ------------------------------------------------------------------------


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bipcayley",
        description="Bipartite Cayley (di)graphs over finite abelian groups: "
                    "exact indices, classification, bounds, and surveys.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, group=True, subgroup=False, conn=False, mode=False,
               threads=False):
        p.add_argument("--format", choices=("json", "csv", "text"),
                       default="json")
        p.add_argument("--no-timing", action="store_true",
                       help="zero out timing fields for byte-identical output")
        if group:
            p.add_argument("--group", required=True,
                           help="group spec, e.g. C4xC2^3")
        if subgroup:
            p.add_argument("--subgroup",
                           help="'index:k' or generator tuples '2,0;0,1'")
        if conn:
            p.add_argument("--set", default="",
                           help="connection set: elements separated by ';' "
                                "(',' for rank-1 groups) or 'all-minus-B'")
        if mode:
            p.add_argument("--mode", choices=("directed", "undirected"),
                           default="directed")
        if threads:
            p.add_argument("--threads", type=_int_at_least(1),
                           default=os.cpu_count() or 1)
            p.add_argument("--progress", action="store_true",
                           help="stream progress to stderr")

    p = sub.add_parser("group-info", help="orders, size, exponent, type")
    common(p)

    p = sub.add_parser("subgroups", help="index-2 / prime subgroups")
    common(p)
    p.add_argument("--kind", choices=("index2", "prime-order", "prime-index"),
                   default="index2")

    p = sub.add_parser("auts", help="automorphism enumeration")
    common(p)
    p.add_argument("--stabilizing", help="restrict to alpha with alpha(B)=B")
    p.add_argument("--limit", type=_int_at_least(0),
                   help="list at most this many automorphisms (default 50)")
    p.add_argument("--list", action="store_true")

    p = sub.add_parser("index", help="Cayley index of one connection set")
    common(p, subgroup=True, conn=True, mode=True)
    p.add_argument("--timeout", type=_seconds, default=None)
    p.add_argument("--export-graph", metavar="PATH",
                   help="also write a DIMACS-like arc list to PATH")

    p = sub.add_parser("classify", help="A1..A4/GOOD classification")
    common(p, subgroup=True, conn=True, mode=True)
    p.add_argument("--cross-check", action="store_true")

    p = sub.add_parser("bounds", help="lemma bounds and preliminary facts")
    common(p, group=False, subgroup=True)
    what = p.add_mutually_exclusive_group(required=True)
    what.add_argument("--group", help="group spec, e.g. C4xC2^3")
    what.add_argument("--thresholds", action="store_true",
                      help="scan the corollary-proof thresholds instead")

    p = sub.add_parser("table", help="reproduce Table 1 or 2")
    common(p, group=False, threads=True)
    p.add_argument("--which", type=int, choices=(1, 2), required=True)
    p.add_argument("--budget", type=_budget, default=DEFAULT_TABLE_BUDGET)
    p.add_argument("--include-extended", action="store_true")

    p = sub.add_parser("survey", help="minimize the index over all sets")
    common(p, subgroup=True, mode=True, threads=True)
    p.add_argument("--method", choices=("exhaustive", "random"),
                   default="exhaustive")
    p.add_argument("--budget", type=_budget, default=DEFAULT_EXHAUSTIVE_BUDGET)
    p.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--all-subgroups", action="store_true",
                   help="global index: minimize over every index-2 B")
    p.add_argument("--timeout", type=_seconds, default=None)

    p = sub.add_parser("sample", help="Monte-Carlo minimal-index proportion")
    common(p, subgroup=True, mode=True)
    p.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("unlabeled", help="isomorphism classes via canonical forms")
    common(p, subgroup=True, mode=True)

    p = sub.add_parser("c26", help="the C2^6 reduction sub-claims / search")
    common(p, group=False, threads=True)
    p.add_argument("--full", action="store_true")
    p.add_argument("--budget", type=_budget, default=None)
    p.add_argument("--checkpoint", default=None)

    return parser


_HANDLERS = {
    "group-info": _cmd_group_info,
    "subgroups": _cmd_subgroups,
    "auts": _cmd_auts,
    "index": _cmd_index,
    "classify": _cmd_classify,
    "bounds": _cmd_bounds,
    "table": _cmd_table,
    "survey": _cmd_survey,
    "sample": _cmd_sample,
    "unlabeled": _cmd_unlabeled,
    "c26": _cmd_c26,
}


# Survey options that the other method does not read, kept out of the echo.
_IGNORED_BY_METHOD = {"exhaustive": ("seed", "samples"), "random": ("budget",)}


def main(argv: list[str] | None = None, out=None) -> int:
    out = out or sys.stdout
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        caps = _resolve_caps()
        config = {"command": args.command, **caps}
        ignored = _IGNORED_BY_METHOD.get(getattr(args, "method", None), ())
        for key in ("group", "subgroup", "set", "mode", "method", "seed",
                    "samples", "budget", "threads", "which", "format",
                    "kind", "timeout", "limit"):
            if key not in ignored and getattr(args, key, None) not in (None, ""):
                config[key] = getattr(args, key)
        # flags and options that change the result, echoed when set
        for key in ("stabilizing", "include_extended",
                    "all_subgroups", "thresholds", "cross_check", "full",
                    "checkpoint"):
            if getattr(args, key, None):
                config[key] = getattr(args, key)
        group = None
        if getattr(args, "group", None) is not None:
            group = build_group(parse_group_spec(args.group), caps["size_cap"])
            if args.command not in _UNSEARCHED:
                _check_cap(caps, group.size)
        result, code = _HANDLERS[args.command](args, caps, group)
    except errors.UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except errors.LimitExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except errors.FalsificationError as exc:
        print(f"FALSIFICATION: {exc}", file=sys.stderr)
        return EXIT_FALSIFIED
    try:
        emit({"config": config, "result": result}, args.format, out)
        out.flush()
    except BrokenPipeError:
        # the reader closed stdout; keep the interpreter's final flush quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


if __name__ == "__main__":
    sys.exit(main())
