"""The test oracle for policy evaluation (acceptance criterion 3)."""

from chamail.policy import Decision, KeywordMode, Lists, MessageMeta, PolicySet, SenderMode
from chamail.principal import Owner, Principal


def reference_evaluate(
    policy: PolicySet,
    meta: MessageMeta,
    lists: Lists,
    principal: Principal,
) -> Decision:
    """Deliberately naive re-implementation of evaluate(), kept as an
    independent correctness oracle. No shared helpers, no short-circuits."""
    if isinstance(principal, Owner):
        return Decision.VISIBLE
    verdicts = []
    for c in policy.sender_constraints:
        if not isinstance(meta.sender, str):
            verdicts.append(False)
            continue
        member = False
        for entry in lists.get(c.list_ref, ()):
            if entry == meta.sender:
                member = True
        if c.mode is SenderMode.WHITELIST:
            verdicts.append(member)
        else:
            verdicts.append(not member)
    for c in policy.keyword_constraints:
        found = False
        for kw in c.keywords:
            if kw.casefold() in meta.subject.casefold():
                found = True
            if kw.casefold() in meta.body_excerpt.casefold():
                found = True
        if c.mode is KeywordMode.REQUIRE_ANY:
            verdicts.append(found)
        else:
            verdicts.append(not found)
    if all(verdicts):
        return Decision.VISIBLE
    return Decision.HIDDEN
