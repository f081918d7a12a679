"""Regulatory audit of detected loaded trajectories.

The paper (introduction, reason 2) notes that a loaded HCT truck is
prohibited from entering main urban areas and from moving on roads between
2:00 am and 5:00 am.  With loaded trajectories detected, both rules can be
audited automatically.  This example runs LEAD over unseen truck-days and
reports violations.

Usage::

    python examples/regulatory_audit.py
"""

from repro import (DatasetConfig, LEAD, LEADConfig, SyntheticWorld,
                   WorldConfig, generate_dataset)
from repro.detection import DetectorTrainingConfig
from repro.encoding import AutoencoderTrainingConfig

CURFEW = (2 * 3600.0, 5 * 3600.0)   # no loaded movement 2:00-5:00 am
MOVING_SPEED_KMH = 10.0


def audit(result, urban_core) -> list[str]:
    """Check one detected loaded trajectory against both rules."""
    violations = []
    loaded = result.candidate.subtrajectory()
    inside = [urban_core.contains(lat, lng)
              for lat, lng in zip(loaded.lats, loaded.lngs)]
    if any(inside):
        fraction = 100.0 * sum(inside) / len(inside)
        violations.append(
            f"urban-area entry while loaded ({fraction:.0f}% of loaded "
            f"fixes inside the core)")
    speeds = loaded.segment_speeds_kmh()
    mids = (loaded.ts[:-1] + loaded.ts[1:]) / 2.0
    curfew_moving = (speeds > MOVING_SPEED_KMH) & \
        (mids >= CURFEW[0]) & (mids <= CURFEW[1])
    if curfew_moving.any():
        violations.append(
            f"moved while loaded during the 2-5 am curfew "
            f"({int(curfew_moving.sum())} segments)")
    return violations


def main() -> None:
    world = SyntheticWorld(WorldConfig(seed=31))
    dataset = generate_dataset(
        DatasetConfig(num_trajectories=40, num_trucks=18, seed=31),
        world=world)
    train, _, test = dataset.split_by_truck((8, 1, 1), seed=0)

    lead = LEAD(world.pois, LEADConfig(
        encoder_training=AutoencoderTrainingConfig(
            epochs=2, max_samples_per_epoch=120, seed=0),
        detector_training=DetectorTrainingConfig(epochs=4, seed=0)))
    lead.fit(train.samples)

    audited = 0
    flagged = 0
    for sample in test:
        result = lead.detect(sample.trajectory)
        if result is None:
            continue
        audited += 1
        violations = audit(result, world.urban_core)
        if violations:
            flagged += 1
            print(f"truck {sample.trajectory.truck_id} "
                  f"({sample.trajectory.day}):")
            for violation in violations:
                print(f"  - {violation}")
    print(f"\naudited {audited} truck-days, flagged {flagged} "
          f"(loaded trucks legally avoid the urban core, so most days "
          f"should be clean)")


if __name__ == "__main__":
    main()
