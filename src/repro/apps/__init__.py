"""Prebuilt application topologies for the case studies and benchmarks.

* :mod:`repro.apps.twotier` — ServiceA -> ServiceB (paper Example 1)
* :mod:`repro.apps.wordpress` — WordPress + ElasticPress (Figs 5-6)
* :mod:`repro.apps.enterprise` — the IBM case-study portal (Fig 4)
* :mod:`repro.apps.trees` — binary trees of services (Fig 7)
* :mod:`repro.apps.outages` — the Table 1 outage recreations, plus the
  seeded-resilience-bug fixtures the exploration layer is scored on
* :mod:`repro.apps.socialnetwork` — a 28-service DeathStarBench-class
  social network (production-scale benchmark app)
* :mod:`repro.apps.hotelreservation` — a 20-service DeathStarBench-class
  hotel reservation app (production-scale benchmark app)

:data:`APPS` (:mod:`repro.apps.catalog`) names each of them once.
"""

from repro.util import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "catalog": ["APPS"],
        "enterprise": ["build_enterprise_app"],
        "hotelreservation": ["HOTELRESERVATION_SERVICES", "build_hotelreservation_app"],
        "outages": [
            "OUTAGE_SUITE",
            "SEEDED_BUG_SUITE",
            "SeededBug",
            "SeededBugManifest",
            "billing_recipe",
            "build_billing_app",
            "build_coreservice_app",
            "build_database_app",
            "build_deepfanout_app",
            "build_messagebus_app",
            "build_retrystorm_app",
            "build_stuckbreaker_app",
            "coreservice_recipe",
            "database_overload_recipe",
            "messagebus_recipe",
        ],
        "socialnetwork": ["SOCIALNETWORK_SERVICES", "build_socialnetwork_app"],
        "trees": ["TREE_ROOT", "build_tree_app", "build_tree3_app", "tree_service_names"],
        "twotier": ["build_twotier"],
        "wordpress": ["ELASTICSEARCH", "MYSQL", "WORDPRESS", "build_wordpress_app"],
    },
)
