from squashsim.golden import golden_passed, run_golden


def test_all_six_steps_pass():
    steps = run_golden()
    assert len(steps) == 6
    for s in steps:
        assert s.passed, f"step {s.step}: {s.failures}"
    assert golden_passed(steps)


def test_step_descriptions_cover_the_walkthrough():
    steps = run_golden()
    assert [s.step for s in steps] == [1, 2, 3, 4, 5, 6]
