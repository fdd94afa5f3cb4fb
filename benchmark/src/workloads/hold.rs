//! `queue_hold` — the classic hold model on the default engine and event
//! list: a large pending set, a near-empty handler. Event-list, engine
//! loop and event storage do nearly all the work; `net` and `grid` none.
//!
//! The pending set is pre-filled at *spread* timestamps (draws from the
//! increment distribution itself, the hold model's steady state), never at
//! one timestamp: a calendar queue pre-filled at a single instant took
//! 74 s for 5 M holds at 100 k pending when this benchmark was defined.

use super::{InputFile, Outcome, Size, Study};
use crate::product::{Ctx, Model, SimTime};
use crate::util::{outcome, Rng};
use std::path::Path;

fn dims(size: Size) -> (usize, u64) {
    match size {
        Size::Full => (1_000_000, 2_000_000),
        Size::Smoke => (2_000, 20_000),
    }
}

/// `hold.bin`: little-endian `u64` header `[pending, holds, rng seed]`,
/// then `pending` little-endian `f64` timestamps.
pub fn generate(seed: u64, size: Size) -> Vec<InputFile> {
    let (pending, holds) = dims(size);
    let mut rng = Rng::new(seed, 40);
    let mut bytes = Vec::with_capacity(24 + pending * 8);
    for word in [pending as u64, holds, rng.next_u64()] {
        bytes.extend_from_slice(&word.to_le_bytes());
    }
    for _ in 0..pending {
        bytes.extend_from_slice(&rng.lomax2().to_le_bytes());
    }
    vec![("hold.bin", bytes)]
}

/// Parsed `hold.bin`.
pub struct HoldInput {
    holds: u64,
    rng_seed: u64,
    initial: Vec<f64>,
}

/// The hold model: every event schedules its successor a heavy-tailed
/// (Lomax, shape 2) increment later.
pub struct HoldModel {
    rng: Rng,
    left: u64,
    /// Commutative fold of `(token, delivery time)`.
    fingerprint: u64,
    last: SimTime,
}

impl Model for HoldModel {
    type Event = u32;

    #[inline]
    fn handle(&mut self, token: u32, ctx: &mut Ctx<'_, u32>) {
        self.last = ctx.now();
        self.fingerprint = self
            .fingerprint
            .wrapping_add(outcome(u64::from(token), self.last.seconds().to_bits()));
        self.left -= 1;
        if self.left == 0 {
            ctx.stop();
            return;
        }
        ctx.schedule_in(self.rng.lomax2(), token);
    }
}

/// The `queue_hold` study.
pub struct QueueHold;

impl Study for QueueHold {
    type M = HoldModel;
    type Input = HoldInput;

    fn load(dir: &Path) -> std::io::Result<HoldInput> {
        let bytes = std::fs::read(dir.join("hold.bin"))?;
        let bad = || std::io::Error::new(std::io::ErrorKind::InvalidData, "hold.bin truncated");
        let word = |i: usize| -> std::io::Result<u64> {
            let b = bytes.get(i * 8..i * 8 + 8).ok_or_else(bad)?;
            Ok(u64::from_le_bytes(b.try_into().expect("8-byte slice")))
        };
        let (pending, holds, rng_seed) = (word(0)? as usize, word(1)?, word(2)?);
        if bytes.len() != 24 + pending * 8 || holds == 0 {
            return Err(bad());
        }
        let initial = (0..pending)
            .map(|i| word(3 + i).map(f64::from_bits))
            .collect::<std::io::Result<Vec<f64>>>()?;
        Ok(HoldInput {
            holds,
            rng_seed,
            initial,
        })
    }

    fn build(input: &HoldInput) -> HoldModel {
        HoldModel {
            rng: Rng::new(input.rng_seed, 41),
            left: input.holds,
            fingerprint: 0,
            last: SimTime::ZERO,
        }
    }

    fn prime(input: &HoldInput, schedule: &mut dyn FnMut(SimTime, u32)) {
        for (i, &t) in input.initial.iter().enumerate() {
            schedule(SimTime::new(t), i as u32);
        }
    }

    fn horizon(_: &HoldInput) -> Option<SimTime> {
        None
    }

    fn outcome(input: &HoldInput, model: &HoldModel, events: u64) -> Outcome {
        let violation = (events != input.holds || model.left != 0)
            .then(|| format!("{events} holds delivered, {} asked", input.holds));
        Outcome {
            ops: events,
            events,
            fingerprint: outcome(model.fingerprint, model.last.seconds().to_bits()),
            counts: Vec::new(),
            violation,
            report: format!(
                "{{\"workload\":\"queue_hold\",\"holds\":{events},\"end_time\":{}}}",
                model.last.seconds()
            ),
        }
    }
}
