from workloads import ESTIMATES, MARCH, WORKLOADS


def test_same_seed_generates_same_configs():
    for specs in WORKLOADS.values():
        for spec in specs:
            assert spec.seeded(7) == spec.seeded(7)


def test_seed_sets_only_the_two_seed_keys():
    for specs in WORKLOADS.values():
        for spec in specs:
            a, b = spec.seeded(1), spec.seeded(2)
            assert a["run"]["seed"] == 1 and a["checks"]["existence_seed"] == 1
            b["run"]["seed"] = 1
            b["checks"]["existence_seed"] = 1
            assert a == b
            assert spec.config.get("run") is None  # seeding does not touch the template


def test_requested_work_matches_the_documented_sizes():
    assert MARCH[0].steps() == 5000
    assert ESTIMATES[0].trials() == 11000
