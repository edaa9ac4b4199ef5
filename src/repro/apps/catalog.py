"""The catalog of prebuilt applications: one name per builder.

:data:`APPS` maps each app name the CLI, the fuzzer and the tests
accept to its zero-argument builder.  A lookup imports only the named
builder's module, so a command pays only for the apps it builds.
"""

from __future__ import annotations

import typing as _t

if _t.TYPE_CHECKING:
    from repro.microservice import Application

__all__ = ["APPS"]


class _AppCatalog(_t.Mapping[str, _t.Callable[[], "Application"]]):
    """Name -> zero-argument builder, resolved on lookup.  The catalog
    pickles by reference (as ``repro.apps.catalog.APPS``); each builder
    pickles by its own module."""

    def __init__(self, builders: dict[str, str]) -> None:
        self._builders = builders  # app name -> builder name in repro.apps

    def __getitem__(self, name: str) -> _t.Callable[[], "Application"]:
        import repro.apps

        return getattr(repro.apps, self._builders[name])

    def __contains__(self, name: object) -> bool:
        return name in self._builders

    def __iter__(self) -> _t.Iterator[str]:
        return iter(self._builders)

    def __len__(self) -> int:
        return len(self._builders)

    def __reduce__(self) -> str:
        return "APPS"


#: Name -> zero-argument builder for every prebuilt application.  All
#: builders are importable module-level callables, which is what lets
#: ``--backend processes`` ship any of them to worker interpreters.
APPS = _AppCatalog(
    {
        "twotier": "build_twotier",
        "wordpress": "build_wordpress_app",
        "enterprise": "build_enterprise_app",
        "tree3": "build_tree3_app",
        "messagebus": "build_messagebus_app",
        "database": "build_database_app",
        "coreservice": "build_coreservice_app",
        "billing": "build_billing_app",
        # Seeded-resilience-bug fixtures (ground truth for `fuzz explore`).
        "deepfanout": "build_deepfanout_app",
        "retrystorm": "build_retrystorm_app",
        "stuckbreaker": "build_stuckbreaker_app",
        # Production-scale benchmark apps (DeathStarBench-class; naive
        # builds — pass hardened=True in code for the hardened variants).
        "socialnetwork": "build_socialnetwork_app",
        "hotelreservation": "build_hotelreservation_app",
    }
)
