"""Script half of ``test_import_budget.py``; run in a fresh interpreter.

Starts a one-worker spawn-started process pool, has the worker execute
one real tree-app recipe, and prints as JSON the recipe's status and
the worker's ``sys.modules`` afterwards.  pytest must never import this
file: the worker re-imports it as its main module, so whatever it
imports is charged to the worker's budget.
"""

import functools
import json
import sys

from repro.apps import build_tree_app
from repro.campaign import ProcessPool, ProcessWorkerSpec, RecipeExecutor, plan_campaign


def execute_then_list_modules(worker_id, entry, factory):
    outcome = RecipeExecutor(factory).execute(entry)
    return {"status": outcome.status, "modules": sorted(sys.modules)}


if __name__ == "__main__":
    factory = functools.partial(build_tree_app, 2)
    entry = plan_campaign(factory, seed=7, requests=2).entries[0]
    spec = ProcessWorkerSpec(target=execute_then_list_modules, context=factory)
    with ProcessPool(spec, size=1) as pool:
        print(json.dumps(pool.run([entry])[0]))
