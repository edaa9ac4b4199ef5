"""Generator determinism and corpus validity."""

from repro.fuzz import FuzzGenerator, build_application, build_check, build_scenario

CORPUS = 40


class TestDeterminism:
    def test_same_seed_same_corpus(self):
        first = FuzzGenerator(11).generate(CORPUS)
        second = FuzzGenerator(11).generate(CORPUS)
        assert [c.to_dict() for c in first] == [c.to_dict() for c in second]

    def test_case_independent_of_generation_order(self):
        generator = FuzzGenerator(11)
        direct = generator.case(17)
        assert FuzzGenerator(11).generate(18)[17] == direct

    def test_different_seeds_differ(self):
        a = FuzzGenerator(1).generate(10)
        b = FuzzGenerator(2).generate(10)
        assert [c.to_dict() for c in a] != [c.to_dict() for c in b]


class TestCorpusValidity:
    def test_every_case_materializes(self):
        for case in FuzzGenerator(3).generate(CORPUS):
            application = build_application(case.topology)
            assert application.definitions
            for spec in case.scenarios:
                build_scenario(spec)
            for spec in case.checks:
                build_check(spec)
            assert case.workload.requests >= 1

    def test_dags_are_rooted_at_entry(self):
        for case in FuzzGenerator(5).generate(CORPUS):
            if case.topology.kind != "dag":
                continue
            topology = case.topology
            assert topology.entry == topology.services[0]
            # Every non-root service has at least one caller.
            callees = {dst for _, dst in topology.edges}
            for service in topology.services[1:]:
                assert service in callees
            # Edges point strictly forward: it is a DAG.
            order = {name: i for i, name in enumerate(topology.services)}
            assert all(order[src] < order[dst] for src, dst in topology.edges)

    def test_corpus_mixes_domains(self):
        cases = FuzzGenerator(0).generate(120)
        kinds = {spec["kind"] for case in cases for spec in case.scenarios}
        # All fifteen scenario kinds appear in a decent-sized corpus.
        assert len(kinds) == 15, kinds
        assert {"retry_storm", "gray_failure", "misconfiguration",
                "resource_exhaustion", "noop_control"} <= kinds
        assert any(case.topology.kind == "app" for case in cases)
        assert any(case.oracle_eligible for case in cases)
        assert any(not case.deterministic for case in cases)

    def test_zero_app_fraction_means_dag_only(self):
        cases = FuzzGenerator(0, app_fraction=0.0).generate(30)
        assert all(case.topology.kind == "dag" for case in cases)
