"""Script half of ``test_import_budget.py``'s worker-imports test; run in
a fresh interpreter.

Starts a one-worker process pool whose target lives in an importable
module — this file, imported under its own name, so no pickle names
``__main__`` — has the worker execute one real tree-app recipe, and
prints as JSON the recipe's status, the worker's ``sys.modules`` and
the name of the module registered as ``__mp_main__`` there.
"""

import sys

from repro.campaign.runner import RecipeExecutor


def execute_then_list_modules(worker_id, entry, factory):
    outcome = RecipeExecutor(factory).execute(entry)
    return {
        "status": outcome.status,
        "modules": sorted(sys.modules),
        "mp_main": getattr(sys.modules.get("__mp_main__"), "__name__", None),
    }


if __name__ == "__main__":
    import functools
    import json

    from repro.apps.trees import build_tree_app
    from repro.campaign import ProcessPool, ProcessWorkerSpec, plan_campaign
    from worker_imports_probe import execute_then_list_modules as target

    factory = functools.partial(build_tree_app, 2)
    entry = plan_campaign(factory, seed=7, requests=2).entries[0]
    spec = ProcessWorkerSpec(target=target, context=factory)
    with ProcessPool(spec, size=1) as pool:
        print(json.dumps(pool.run([entry])[0]))
