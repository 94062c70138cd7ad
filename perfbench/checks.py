"""Output oracles.  Every expected value comes from the generator's labels or
from the benchmark's own closed forms, never from the program under test.

Each check returns a list of problems; an empty list means it passed.
"""

from __future__ import annotations

import json
import math
import re

from workloads import MIXTURE, RULE_ORDER, TRANSFORM_RULES, Workload

# pipeline-small agreement at the seed commit over seeds 1-20 and 501-540:
# median 0.995, lowest 0.9417 (seed 505) and 0.9611 (seed 525).  The floor
# sits below that seed-to-seed tail and far above a filter that keeps or
# drops everything (0.6, the template share).
AGREEMENT_FLOOR = 0.90
THRESHOLD_TOL = 1e-6


def read_records(path) -> list[dict]:
    """Parse a JSONL output file; Python's json accepts NaN/Infinity literals."""
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def closed_form_threshold(pi, mu_q, sigma_q, mu_uq, sigma_uq) -> float:
    """Root of pi N(x; mu_q, s_q) = (1 - pi) N(x; mu_uq, s_uq) in (mu_q, mu_uq).

    Taking logs gives a x^2 + b x + c = 0; without a root strictly between
    the means (or with two, so no sign change between them) the documented
    fallback is their midpoint.
    """
    a = 0.5 / sigma_q**2 - 0.5 / sigma_uq**2
    b = mu_uq / sigma_uq**2 - mu_q / sigma_q**2
    c = (0.5 * mu_q**2 / sigma_q**2 - 0.5 * mu_uq**2 / sigma_uq**2
         + math.log(sigma_q * (1.0 - pi) / (sigma_uq * pi)))
    if abs(a) < 1e-14:
        roots = [-c / b] if b else []
    else:
        disc = b * b - 4.0 * a * c
        roots = [] if disc < 0 else [(-b + s * math.sqrt(disc)) / (2.0 * a) for s in (-1.0, 1.0)]
    inside = [r for r in roots if mu_q < r < mu_uq]
    return inside[0] if len(inside) == 1 else 0.5 * (mu_q + mu_uq)


def check_rule_filter(wl: Workload, stats: dict, retained: list[dict], rejects: list[dict]) -> list[str]:
    """Counts, ids and cleaned first sentences equal the generator's labels."""
    problems = []
    labels = wl.raw_labels
    want_retained = [rid for rid in wl.raw_ids if labels[rid].rule is None]
    want_rejected = [rid for rid in wl.raw_ids if labels[rid].rule is not None]
    if stats.get("input") != len(wl.raw_ids):
        problems.append(f"rule_stats input {stats.get('input')} != {len(wl.raw_ids)}")
    if stats.get("retained") != len(want_retained):
        problems.append(f"rule_stats retained {stats.get('retained')} != {len(want_retained)}")
    rows = {row.get("rule"): row for row in stats.get("rows", [])}
    running = len(wl.raw_ids)
    for rule in RULE_ORDER:
        row = rows.get(rule, {})
        if rule in TRANSFORM_RULES:
            key, want = "modified", sum(1 for rid in wl.raw_ids if rule in labels[rid].modified)
        else:
            key, want = "discarded", sum(1 for rid in wl.raw_ids if labels[rid].rule == rule)
            running -= want
        if row.get(key) != want or row.get("retained") != running:
            problems.append(f"rule_stats {rule}: {key} {row.get(key)} retained {row.get('retained')}"
                            f" != {want} / {running}")
    if [r["id"] for r in retained] != want_retained:
        problems.append("rule-retained ids differ from the generator's retained set")
    else:
        wrong = [r["id"] for r in retained if r["comment"] != labels[r["id"]].text]
        if wrong:
            problems.append(f"{len(wrong)} retained comments differ from the expected first "
                            f"sentence (first: {wrong[0]})")
    if [r["id"] for r in rejects] != want_rejected:
        problems.append("rule-rejected ids differ from the generator's rejected set")
    return problems


def check_scores(wl: Workload, scored: list[dict]) -> tuple[list[str], int]:
    """Every expected record is scored once, finitely and non-negatively.

    Returns (problems, number of records whose score is missing or bad).
    """
    got = {r["id"]: r.get("score") for r in scored}
    bad = [rid for rid in wl.score_ids
           if not isinstance(got.get(rid), (int, float)) or not math.isfinite(got[rid]) or got[rid] < 0]
    problems = []
    if [r["id"] for r in scored] != wl.score_ids:
        problems.append("scored ids differ from the records sent to the score stage")
    if bad:
        problems.append(f"{len(bad)} missing, non-finite or negative scores (first: {bad[0]})")
    return problems, len(bad)


def check_partition(scores: list[tuple[str, float]], report: dict,
                    retained: list[dict], rejects: list[dict]) -> list[str]:
    """The threshold is the closed-form root and splits the scores exactly."""
    problems = []
    try:
        want = closed_form_threshold(report["pi"], report["mu_q"], report["sigma_q"],
                                     report["mu_uq"], report["sigma_uq"])
        threshold = report["threshold"]
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return [f"partition report unusable: {exc!r}"]
    if not abs(threshold - want) <= THRESHOLD_TOL:
        problems.append(f"threshold {threshold!r} != closed-form root {want!r}")
    keep = [rid for rid, score in scores if score <= threshold]
    drop = [rid for rid, score in scores if not score <= threshold]
    if [r["id"] for r in retained] != keep:
        problems.append("retained ids are not exactly {score <= threshold}")
    if [r["id"] for r in rejects] != drop:
        problems.append("rejected ids are not exactly {score > threshold}")
    by_id = dict(scores)
    changed = [r["id"] for r in retained + rejects if r.get("score") != by_id.get(r["id"])]
    if changed:
        problems.append(f"{len(changed)} scores changed by partition (first: {changed[0]})")
    return problems


def check_mixture(wl: Workload, report: dict) -> list[str]:
    """The EM fit recovers the generator's mixture within sampling error."""
    n = len(wl.scored_labels)
    problems = []
    for key, sigma, share in (("mu_q", "sigma_q", MIXTURE["pi"]), ("mu_uq", "sigma_uq", 1 - MIXTURE["pi"])):
        tol = 0.02 + 6.0 * MIXTURE[sigma] / math.sqrt(n * share)
        for name in (key, sigma):
            if not abs(report.get(name, math.nan) - MIXTURE[name]) <= tol:
                problems.append(f"fitted {name} {report.get(name)!r} is not {MIXTURE[name]} +- {tol:.3f}")
    pi_tol = 0.01 + 6.0 * math.sqrt(MIXTURE["pi"] * (1 - MIXTURE["pi"]) / n)
    if not abs(report.get("pi", math.nan) - MIXTURE["pi"]) <= pi_tol:
        problems.append(f"fitted pi {report.get('pi')!r} is not {MIXTURE['pi']} +- {pi_tol:.3f}")
    return problems


def agreement(wl: Workload, retained: list[dict], rejects: list[dict]) -> float:
    """Share of partitioned records whose outcome matches the generator's label."""
    if wl.scored_labels:
        label = {rid: is_q for rid, (_, is_q) in wl.scored_labels.items()}
    else:
        label = {rid: wl.raw_labels[rid].template for rid in wl.score_ids}
    hits = sum(1 for r in retained if label[r["id"]]) + sum(1 for r in rejects if not label[r["id"]])
    total = len(retained) + len(rejects)
    return hits / total if total else 0.0


def check_bootstrap(wl: Workload, lines: list[str]) -> list[str]:
    if lines != wl.bootstrap_expected:
        return [f"bootstrap corpus has {len(lines)} lines, expected {len(wl.bootstrap_expected)}"
                " declarative how-to sentences"]
    return []


def check_vocabulary(wl: Workload, tokens: list[str]) -> list[str]:
    """Specials first, then exactly the bootstrap tokens seen min_count times."""
    counts: dict[str, int] = {}
    for line in wl.bootstrap_expected:
        for token in re.findall(r"[a-z0-9]+", line.lower()):
            counts[token] = counts.get(token, 0) + 1
    want = {t for t, c in counts.items() if c >= wl.tokenizer["min_count"]}
    problems = []
    if tokens[:4] != ["<pad>", "<bos>", "<eos>", "<unk>"]:
        problems.append("vocabulary does not start with the four reserved tokens")
    if len(want) <= wl.tokenizer["max_size"] - 4 and set(tokens[4:]) != want:
        problems.append(f"vocabulary has {len(tokens) - 4} tokens, expected {len(want)}")
    if len(set(tokens)) != len(tokens):
        problems.append("vocabulary tokens are not unique")
    return problems


def check_rescored(reference: dict, rescored: list[dict]) -> list[str]:
    """A sample re-scored with --jobs 1 matches the pipeline's scores bit for bit."""
    diff = [r["id"] for r in rescored if r.get("score") != reference.get(r["id"])]
    if len(rescored) != len(reference) or diff:
        return [f"{len(diff)} of {len(reference)} re-scored records differ"]
    return []

