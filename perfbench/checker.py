"""Checks served answers against the in-process reference answers.

A predict answer is correct when it parses, is no error and not degraded,
echoes its request id, names a model generation the run can account for,
and carries exactly the reference point, mixture components and attention
that the same gazetteer and that generation's checkpoint give in process
(edge_perfbench expect). Anything else — including a missing answer — is a
failed operation.
"""

import json

COMPARED = ("point", "components", "attention")


def load_reference(path):
    """One {point, components, attention} dict per reference line."""
    reference = []
    with open(path) as f:
        for line in f:
            answer = json.loads(line)
            reference.append({key: answer[key] for key in COMPARED})
    return reference


def generation_models(first_model, reload_models):
    """{generation: model index} for a fleet that starts on `first_model` at
    generation 1 and takes every listed reload in order."""
    models = {1: first_model}
    for k, model in enumerate(reload_models):
        models[2 + k] = model
    return models


def check_predict(answer, request_id, expected_by_model, generations):
    """None when `answer` (a raw line, or None if it never came) is correct;
    otherwise a short reason. expected_by_model[m] is the reference dict of
    this request's line under model m."""
    if answer is None:
        return "missing"
    try:
        body = json.loads(answer)
    except ValueError:
        return "unparseable"
    if not isinstance(body, dict):
        return "not an object"
    if "error" in body:
        return "error answer"
    if body.get("degraded") is not False:
        return "degraded"
    if body.get("id") != request_id:
        return "id mismatch"
    telemetry = body.get("telemetry")
    generation = telemetry.get("generation") if isinstance(telemetry, dict) else None
    model = generations.get(generation)
    if model is None:
        return "unknown generation"
    expected = expected_by_model[model]
    for key in COMPARED:
        if body.get(key) != expected[key]:
            return key + " mismatch"
    return None


def check_reload(answer, request_id):
    """None when a fleet reload was acknowledged as ok by every replica."""
    if answer is None:
        return "missing"
    try:
        body = json.loads(answer)
    except ValueError:
        return "unparseable"
    if not isinstance(body, dict) or body.get("id") != request_id:
        return "id mismatch"
    if body.get("reload") != "ok":
        return "reload not ok"
    replies = body.get("replicas")
    if not replies or any(
        not isinstance(r, dict) or (r.get("reply") or {}).get("reload") != "ok"
        for r in replies
    ):
        return "replica reload not ok"
    return None
