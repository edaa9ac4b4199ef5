"""Every simulation test taking ``sim`` runs on both scheduler lanes."""

from tests.conftest import sim_on_lane as sim  # noqa: F401
