"""Walk through the syntactic rule filter on classic noisy comments.

Run with: python demos/rule_filtering.py
"""

from queryfilter import Rule, apply_ruleset, builtin_rules, extract_first_sentence

# ---------------------------------------------------------------------------
# The kind of text that shows up as "queries" in comment-mined corpora.
# ---------------------------------------------------------------------------
comments = [
    "<p>parse line</p>",
    "(TODO) Send requests",
    "Returns a {@link Support}",
    "See https://github.com/",
    "创建临时文件",
    "==============",
    "Is this a name declaration?",
    "DEPRECATED",
    "Reads the configuration file.\nReturns null when the file is missing.",
    "convert string to int",
]

rules = builtin_rules()
print("builtin rule order:", ", ".join(rule.id for rule in rules))
print()

for comment in comments:
    # The pipeline looks only at the summary sentence of a doc comment.
    first = extract_first_sentence(comment)
    outcome = apply_ruleset(rules, first)
    shown = comment.replace("\n", "\\n")
    if outcome.action == "rejected":
        print(f"  {shown!r:60} -> rejected by {outcome.rule_id}")
    elif outcome.action == "transformed" or first != comment:
        print(f"  {shown!r:60} -> kept as {outcome.text!r}")
    else:
        print(f"  {shown!r:60} -> kept")

# ---------------------------------------------------------------------------
# A ruleset is a tuple: append a rule that rejects any issue tracker id.
# ---------------------------------------------------------------------------
import re

issue_re = re.compile(r"\b[A-Z]{2,}-\d+\b")
extended = rules + (Rule("issue_ids", "reject", lambda t: bool(issue_re.search(t))),)

print()
outcome = apply_ruleset(extended, "fix the padding logic per JIRA-4417")
print("with the custom rule:", outcome.action, "by", outcome.rule_id)
