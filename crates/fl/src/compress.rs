//! Uplink gradient compression — the [`Compression`] stage of the engine.
//!
//! FedDA's parameter masks already sparsify the uplink at *unit*
//! granularity; this module adds the classic scalar-granularity levers on
//! top: lossless identity framing, scalar quantization (`i8` / `f16` with
//! a per-unit scale) and magnitude top-k sparsification. The order is
//! **mask-then-compress**: the protocol's unit mask decides *which* units a
//! client reports, the codec then decides *how many bytes* each
//! reported unit costs. The comm ledger charges the compressed byte count
//! when the report **arrives** at the server (never at dispatch), so the
//! paper's efficiency accounting (Eqs. 8–11) extends to compression
//! ratios: `uplink_bytes` on [`RoundComm`](crate::RoundComm) is the wire
//! cost after both masking and compression.
//!
//! Every codec is deterministic and RNG-free: compressing the same update
//! twice yields byte-identical payloads, so seeded runs stay bit-exact.
//! [`Compression::Identity`] is exactly lossless — it stores the raw `f32`
//! bit patterns of the masked units' updated values — which is what lets
//! the golden tests pin that an `Identity`-compressed run is bit-for-bit
//! the no-codec run.
//!
//! Corruption semantics: compression must not *launder* a corrupted
//! update into an innocuous one. Non-finite deltas survive every codec —
//! `Identity` and `QuantF16` preserve non-finite values structurally,
//! `QuantI8` poisons its per-unit scale to NaN when any masked delta is
//! non-finite, and `TopK`'s total order ranks NaN above every finite
//! magnitude — so the server-side rejection guard still fires on the
//! *decompressed* report.

// Invariant D5 (DESIGN.md §6): byte accounting never truncates silently.
#![warn(clippy::cast_possible_truncation)]

use crate::runtime::Delivery;
use fedda_tensor::{ParamId, ParamSet};
use std::sync::Arc;

/// A client update awaiting compression: the locally-updated parameters,
/// the broadcast reference they were trained from, and the unit mask the
/// server requested (mask-then-compress: only masked units are encoded).
pub struct Delta<'a> {
    /// Locally-updated parameters (the client's report).
    pub updated: &'a ParamSet,
    /// The broadcast parameters the update was computed against.
    pub reference: &'a ParamSet,
    /// One bool per unit: which units the server requested.
    pub mask: &'a [bool],
}

/// Wire payload of one compressed unit.
#[derive(Clone, Debug, PartialEq)]
pub enum Payload {
    /// Raw `f32` bit patterns of the updated values (lossless; 4 bytes per
    /// scalar).
    Raw(Vec<u32>),
    /// IEEE 754 binary16 bits of the per-scalar delta `updated − reference`
    /// (2 bytes per scalar).
    F16(Vec<u16>),
    /// Per-unit linearly-quantized deltas: `delta ≈ code · scale` with
    /// `scale = max|delta| / 127` (1 byte per scalar; the scale rides as
    /// metadata and is excluded from the byte charge, see
    /// [`Compressed::charge`]).
    I8 {
        /// Per-unit dequantization step; NaN when the unit carried any
        /// non-finite delta (the corruption-survival poison).
        scale: f32,
        /// Quantized deltas in `[-127, 127]`.
        codes: Vec<i8>,
    },
    /// Sparse `(position, f32 delta bits)` pairs of the k
    /// largest-magnitude deltas (8 bytes per kept scalar).
    TopK(Vec<(u32, u32)>),
}

impl Payload {
    /// Encoded entries — what `uplink_scalars` counts for this unit.
    pub(crate) fn num_entries(&self) -> usize {
        match self {
            Payload::Raw(v) => v.len(),
            Payload::F16(v) => v.len(),
            Payload::I8 { codes, .. } => codes.len(),
            Payload::TopK(v) => v.len(),
        }
    }

    /// Wire bytes of the payload proper. Framing (unit index, lengths) and
    /// the `I8` scale are metadata, excluded by convention — the same
    /// convention under which the uncompressed path charges `4 ×
    /// uplink_scalars` and nothing for the mask itself.
    pub(crate) fn wire_bytes(&self) -> usize {
        match self {
            Payload::Raw(v) => 4 * v.len(),
            Payload::F16(v) => 2 * v.len(),
            Payload::I8 { codes, .. } => codes.len(),
            Payload::TopK(v) => 8 * v.len(),
        }
    }

    /// Decode in place: `out` must be pre-filled with the unit's reference
    /// values (dense codecs add their delta; `Raw` overwrites).
    pub(crate) fn decode_into(&self, out: &mut [f32]) {
        match self {
            Payload::Raw(bits) => {
                for (o, &b) in out.iter_mut().zip(bits) {
                    *o = f32::from_bits(b);
                }
            }
            Payload::F16(halves) => {
                for (o, &h) in out.iter_mut().zip(halves) {
                    *o += f16_bits_to_f32(h);
                }
            }
            Payload::I8 { scale, codes } => {
                for (o, &c) in out.iter_mut().zip(codes) {
                    // A NaN-poisoned scale turns every scalar NaN here
                    // (0 · NaN = NaN), so the rejection guard still fires.
                    *o += f32::from(c) * *scale;
                }
            }
            Payload::TopK(pairs) => {
                for &(pos, bits) in pairs {
                    if let Some(o) = out.get_mut(pos as usize) {
                        *o += f32::from_bits(bits);
                    }
                }
            }
        }
    }
}

/// One masked unit's compressed report.
#[derive(Clone, Debug, PartialEq)]
pub struct CompressedUnit {
    /// Unit index (position in the [`ParamSet`] iteration order).
    pub unit: usize,
    /// The encoded payload.
    pub payload: Payload,
}

/// A whole compressed client report: one entry per masked unit that
/// encoded to a non-empty payload, in ascending unit order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Compressed {
    /// Per-unit payloads, ascending by `unit`.
    pub units: Vec<CompressedUnit>,
}

impl Compressed {
    /// The ledger charge of this report: units / scalars / bytes actually
    /// on the wire.
    pub fn charge(&self) -> UplinkCharge {
        let mut charge = UplinkCharge::default();
        for cu in &self.units {
            charge.units += 1;
            charge.scalars += cu.payload.num_entries();
            charge.bytes += cu.payload.wire_bytes();
        }
        charge
    }

    /// Rebuild a full [`ParamSet`] from the compressed report: a clone of
    /// `reference` with every encoded unit decoded over it. Units the mask
    /// excluded (or the codec dropped entirely) keep the reference values —
    /// they were never transmitted. The oracle the in-place decode and the
    /// unit-by-unit reads are held to.
    #[cfg(test)]
    pub(crate) fn reconstruct(&self, reference: &ParamSet) -> ParamSet {
        let mut out = reference.clone();
        self.decode_over(&mut out);
        out
    }

    /// Decode every encoded unit over `out`, which must already hold the
    /// reference values.
    fn decode_over(&self, out: &mut ParamSet) {
        for cu in &self.units {
            cu.payload
                .decode_into(out.unit_mut(ParamId::from_index(cu.unit)));
        }
    }
}

/// What one arrived report costs on the comm ledger. Computed at dispatch
/// (it is a pure function of the report), charged at arrival — a report
/// the run outlives is never charged.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct UplinkCharge {
    /// Units with any payload on the wire.
    pub(crate) units: usize,
    /// Encoded entries (the paper's scalar measure, post-compression).
    pub scalars: usize,
    /// Payload bytes on the wire.
    pub bytes: usize,
}

impl UplinkCharge {
    /// The uncompressed charge of a masked report: every masked unit at
    /// full size, 4 bytes per `f32` scalar. This is the accounting the
    /// ledger used before compression existed, bit-for-bit.
    pub fn from_mask(mask: &[bool], unit_sizes: &[usize]) -> Self {
        let mut units = 0usize;
        let mut scalars = 0usize;
        for (k, &m) in mask.iter().enumerate() {
            if m {
                units += 1;
                scalars += unit_sizes.get(k).copied().unwrap_or(0);
            }
        }
        Self {
            units,
            scalars,
            bytes: 4 * scalars,
        }
    }
}

/// A compressed report with the dispatch-time broadcast it was encoded
/// against: everything of an encoded report that stays resident, from its
/// client task to the end of the round that aggregates it (one reference is
/// shared by a whole dispatch). A stale arrival still reads its values
/// against the *right* reference after the global model has moved on.
pub struct InFlight {
    /// The encoded report.
    pub report: Compressed,
    /// The broadcast parameters of the dispatch round/version.
    pub reference: Arc<ParamSet>,
}

impl InFlight {
    /// Unit `id` of the report's reconstruction: the reference's unit with
    /// the unit's payload decoded over it in `scratch`, or the reference's
    /// unit itself when the report does not carry the unit (masked out, or
    /// dropped by the codec). The bits of that unit of
    /// `Compressed::reconstruct`, without building the set.
    pub(crate) fn unit<'a>(&'a self, id: ParamId, scratch: &'a mut Vec<f32>) -> &'a [f32] {
        let base = self.reference.unit(id);
        let units = &self.report.units;
        let Ok(at) = units.binary_search_by_key(&id.index(), |cu| cu.unit) else {
            return base;
        };
        scratch.clear();
        scratch.extend_from_slice(base);
        units[at].payload.decode_into(scratch);
        scratch
    }
}

/// Materialise a delivery's compressed payload (if any) into its
/// [`ClientReturn`](crate::ClientReturn): the reconstruction against the
/// reference it carried becomes `ret.params` and `ret.unit_delta` is
/// recomputed from it. The engine never calls this — its reports carry
/// their encoding in `ClientReturn::encoded` and are read unit by unit —
/// but a round loop built from the public pieces (the benchmark's traced
/// replay) decodes its reports here.
pub fn decode_arrival(d: &mut Delivery) {
    let Some(InFlight { report, reference }) = d.payload.take() else {
        return;
    };
    d.ret.unit_delta = decode_report(&mut d.ret.params, &report, &reference);
    d.ret.client = d.client;
}

/// Write `report`'s reconstruction against `reference` into `out` and
/// return its per-unit distances to `reference` — the report's
/// `unit_delta`. `out` takes the reference's values (one copy into a buffer
/// laid out like it, else a clone) and the decode on top: exactly
/// `report.reconstruct(reference)`, without allocating a set per report.
/// Called from the client task, into its worker slot's buffer, and from
/// [`decode_arrival`].
pub(crate) fn decode_report(
    out: &mut ParamSet,
    report: &Compressed,
    reference: &ParamSet,
) -> Vec<f32> {
    out.copy_from(reference);
    report.decode_over(out);
    out.unit_l2_distances(reference)
}

/// `1.5 · 2⁵²`: adding it to an `f64` of magnitude below `2⁵¹` rounds that
/// value to an integer and stores it in the low mantissa bits.
const ROUND_TO_INT: f64 = 6_755_399_441_055_744.0;
/// `2⁻³⁰`, the tie-lifting nudge of [`encode_i8`]'s second pass.
const HALF_AWAY_NUDGE: f64 = 9.313_225_746_154_785e-10;

/// [`Compression::QuantI8`]'s unit encoding, in the two branch-free passes
/// its bit-exact contract describes.
fn encode_i8(updated: &[f32], reference: &[f32]) -> Payload {
    let max_abs_bits = updated
        .iter()
        .zip(reference)
        .map(|(&u, &r)| (u - r).to_bits() & 0x7FFF_FFFF)
        .fold(0u32, u32::max);
    let scale = if max_abs_bits < f32::INFINITY.to_bits() {
        f32::from_bits(max_abs_bits) / 127.0
    } else {
        f32::NAN
    };
    // A zero or NaN scale encodes everything as 0; decode then reproduces
    // the reference exactly (zero scale) or NaN (poisoned scale).
    if scale.is_nan() || scale <= 0.0 {
        return Payload::I8 {
            scale,
            codes: vec![0; updated.len().min(reference.len())],
        };
    }
    let step = f64::from(scale);
    let codes = updated
        .iter()
        .zip(reference)
        .map(|(&u, &r)| {
            let q = f64::from(u - r) / step;
            let rounded = (q.abs().min(127.0) + HALF_AWAY_NUDGE).copysign(q) + ROUND_TO_INT;
            i8::from_le_bytes([rounded.to_bits().to_le_bytes()[0]])
        })
        .collect();
    Payload::I8 { scale, codes }
}

/// Scalars kept per unit of `len` scalars at fraction `frac`.
#[expect(
    clippy::cast_possible_truncation,
    reason = "Compression::validate keeps frac in (0, 0.5], so the floor of frac * len lies in [0, len]"
)]
fn k_of(frac: f64, len: usize) -> usize {
    (frac * len as f64).floor() as usize
}

/// Indices of the `k` largest-magnitude entries of `deltas`, returned in
/// ascending index order (the canonical wire order). Selection ranks by
/// `|delta|` descending under `total_cmp` — NaN above every finite value —
/// with ties broken by ascending index.
fn top_k_positions(deltas: &[f32], k: usize) -> Vec<usize> {
    let k = k.min(deltas.len());
    if k == 0 {
        return Vec::new();
    }
    let mut idx: Vec<usize> = (0..deltas.len()).collect();
    if k < idx.len() {
        // The order is total, so the k first ranks are one set however
        // they are found: partition around rank k instead of sorting all.
        idx.select_nth_unstable_by(k - 1, |&a, &b| {
            deltas[b].abs().total_cmp(&deltas[a].abs()).then(a.cmp(&b))
        });
        idx.truncate(k);
    }
    idx.sort_unstable();
    idx
}

/// Convert an `f32` to IEEE 754 binary16 bits, round-to-nearest-even.
/// Handles subnormals, signed zero, overflow to ±inf, and NaN (a payload
/// bit is kept so NaN stays NaN).
pub(crate) fn f32_to_f16_bits(x: f32) -> u16 {
    let bits = x.to_bits();
    let sign = (bits >> 16) & 0x8000;
    let exp = (bits >> 23) & 0xFF;
    let man = bits & 0x007F_FFFF;
    let h: u32 = if exp == 0xFF {
        // Inf / NaN; set a mantissa bit for NaN so it survives.
        sign | 0x7C00 | if man != 0 { 0x0200 } else { 0 }
    } else {
        let unbiased = i64::from(exp) - 127;
        if unbiased >= 16 {
            // Overflows binary16's range: ±inf.
            sign | 0x7C00
        } else if unbiased >= -14 {
            // Normal half.
            let mant = man >> 13;
            let rest = man & 0x1FFF;
            let mut h = sign | (u32::try_from(unbiased + 15).unwrap_or(0) << 10) | mant;
            if rest > 0x1000 || (rest == 0x1000 && (mant & 1) == 1) {
                // Round up; a mantissa carry rolls into the exponent (and
                // into ±inf at the top), which is exactly right.
                h += 1;
            }
            h
        } else if unbiased >= -25 {
            // Subnormal half: value = mant · 2^-24 after shifting.
            let full = man | 0x0080_0000;
            let shift = u32::try_from(-unbiased - 1).unwrap_or(24); // 14..=24
            let mant = full >> shift;
            let rem = full & ((1u32 << shift) - 1);
            let half = 1u32 << (shift - 1);
            let mut h = sign | mant;
            if rem > half || (rem == half && (mant & 1) == 1) {
                h += 1;
            }
            h
        } else {
            // Too small for even a subnormal: signed zero.
            sign
        }
    };
    u16::try_from(h & 0xFFFF).unwrap_or(0)
}

/// Convert IEEE 754 binary16 bits to the exactly-representable `f32`.
pub(crate) fn f16_bits_to_f32(h: u16) -> f32 {
    let h = u32::from(h);
    let sign = (h & 0x8000) << 16;
    let exp = (h >> 10) & 0x1F;
    let man = h & 0x03FF;
    if exp == 0x1F {
        f32::from_bits(sign | 0x7F80_0000 | (man << 13))
    } else if exp == 0 {
        if man == 0 {
            f32::from_bits(sign)
        } else {
            // Subnormal half: exact as man · 2^-24.
            let mag = (man as f32) * f32::from_bits(0x3380_0000);
            if sign != 0 {
                -mag
            } else {
                mag
            }
        }
    } else {
        f32::from_bits(sign | ((exp + 112) << 23) | (man << 13))
    }
}

/// The uplink codec a run uses (`FlConfig::compression`; `--compress` on
/// the CLI and bench binaries): deterministic and RNG-free. `None` at the
/// config level keeps the pre-compression code path, bit for bit.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Compression {
    /// Lossless framing: raw `f32` bits of every masked scalar. Same bytes
    /// as no compression; pins the compression plumbing as bit-exact.
    Identity,
    /// Per-unit linear `i8` quantization of the delta: `scale = max|delta| /
    /// 127`, codes rounded to nearest. 1 byte per scalar (4× smaller than
    /// raw). Any non-finite delta poisons the unit's scale to NaN so
    /// corruption survives the codec.
    ///
    /// # Bit-exact contract
    ///
    /// `scale` and every code equal the scalar formula
    /// `(f64(δ) / f64(scale)).round().clamp(±127)` (round half away from
    /// zero), computed in two branch-free passes the compiler vectorises:
    ///
    /// 1. `max|δ|` over the deltas' bit patterns with the sign cleared. For
    ///    non-negative floats the integer order of the bits is the float
    ///    order, infinities and NaNs sort above every finite value, so one
    ///    `u32` maximum yields both the magnitude and the finite test.
    /// 2. `q = f64(δ) / f64(scale)`, then `min(|q|, 127) + 2⁻³⁰`, the sign
    ///    put back, plus `1.5 · 2⁵²`: at that magnitude an `f64` holds
    ///    integers only, so the addition rounds to the nearest one and
    ///    leaves it, in two's complement, in the low mantissa bits.
    ///
    /// The nudge is what turns round-to-nearest-even into round-half-away:
    /// the quotient of two `f32`s is either exactly *on* a `.5` boundary or
    /// more than `2⁻²⁶` away from it, and the `f64` division (error below
    /// `2⁻⁴⁶`, exact ties exact) keeps it so — `2⁻³⁰` lifts the exact ties
    /// to the upper integer and moves nothing else across. DESIGN.md §12
    /// has the derivation.
    QuantI8,
    /// IEEE 754 binary16 quantization of the delta (round-to-nearest-even).
    /// 2 bytes per scalar; non-finite deltas map to non-finite halves.
    QuantF16,
    /// Magnitude top-k sparsification: per unit, keep the `floor(frac ·
    /// len)` largest-|delta| scalars as `(position, f32 bits)` pairs. Ties
    /// break by ascending index (a total order, no float equality) and NaN
    /// ranks above every finite magnitude, so corruption is always among
    /// the kept entries.
    TopK {
        /// Fraction of each unit's scalars to keep, in `(0, 0.5]` (above 0.5
        /// the 8-byte pairs would exceed the 4-byte-per-scalar raw
        /// encoding).
        frac: f64,
    },
}

impl Compression {
    /// Validate parameters.
    pub(crate) fn validate(&self) -> Result<(), String> {
        if let Compression::TopK { frac } = self {
            if !(frac.is_finite() && *frac > 0.0 && *frac <= 0.5) {
                return Err(format!("top-k fraction must be in (0, 0.5], got {frac}"));
            }
        }
        Ok(())
    }

    /// The codec itself. Kept only because the benchmark package calls it;
    /// it goes when that package is re-pointed.
    pub fn build(&self) -> Self {
        *self
    }

    /// Encode one masked unit given its updated and reference values.
    /// Returning an empty payload drops the unit from the wire entirely
    /// (top-k with `k = 0`): it is neither transmitted nor charged.
    fn encode_unit(&self, updated: &[f32], reference: &[f32]) -> Payload {
        let deltas = || updated.iter().zip(reference).map(|(&u, &r)| u - r);
        match *self {
            Compression::Identity => Payload::Raw(updated.iter().map(|v| v.to_bits()).collect()),
            Compression::QuantI8 => encode_i8(updated, reference),
            Compression::QuantF16 => Payload::F16(deltas().map(f32_to_f16_bits).collect()),
            Compression::TopK { frac } => {
                let deltas: Vec<f32> = deltas().collect();
                let keep = top_k_positions(&deltas, k_of(frac, deltas.len()));
                Payload::TopK(
                    keep.into_iter()
                        .map(|i| (u32::try_from(i).unwrap_or(u32::MAX), deltas[i].to_bits()))
                        .collect(),
                )
            }
        }
    }

    /// Compress a masked client update: encode every masked unit, skip
    /// units whose payload came back empty.
    pub fn compress(&self, delta: &Delta<'_>) -> Compressed {
        let mut units = Vec::new();
        for (k, ((_, up), (_, rf))) in delta.updated.iter().zip(delta.reference.iter()).enumerate()
        {
            if !delta.mask.get(k).copied().unwrap_or(false) {
                continue;
            }
            let payload = self.encode_unit(up, rf);
            if payload.num_entries() == 0 && !up.is_empty() {
                continue;
            }
            units.push(CompressedUnit { unit: k, payload });
        }
        Compressed { units }
    }

    /// The CLI spelling of this codec (`--compress <label>` round-trips).
    pub fn label(&self) -> String {
        match self {
            Compression::Identity => "ident".into(),
            Compression::QuantI8 => "q8".into(),
            Compression::QuantF16 => "f16".into(),
            Compression::TopK { frac } => format!("topk:{frac}"),
        }
    }
}

impl std::str::FromStr for Compression {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "ident" => Ok(Compression::Identity),
            "q8" => Ok(Compression::QuantI8),
            "f16" => Ok(Compression::QuantF16),
            other => {
                if let Some(frac) = other.strip_prefix("topk:") {
                    let frac: f64 = frac
                        .parse()
                        .map_err(|e| format!("invalid top-k fraction {frac:?}: {e}"))?;
                    let c = Compression::TopK { frac };
                    c.validate()?;
                    Ok(c)
                } else {
                    Err(format!(
                        "unknown compressor {other:?} (expected ident|q8|f16|topk:<frac>)"
                    ))
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f16_round_trips_specials() {
        for x in [0.0f32, -0.0, f32::INFINITY, f32::NEG_INFINITY, 1.0, -2.5] {
            let back = f16_bits_to_f32(f32_to_f16_bits(x));
            assert_eq!(back.to_bits(), x.to_bits(), "{x} -> {back}");
        }
        assert!(f16_bits_to_f32(f32_to_f16_bits(f32::NAN)).is_nan());
        // Overflow saturates to ±inf.
        assert_eq!(f16_bits_to_f32(f32_to_f16_bits(1e30)), f32::INFINITY);
        assert_eq!(f16_bits_to_f32(f32_to_f16_bits(-1e30)), f32::NEG_INFINITY);
        assert_eq!(f16_bits_to_f32(f32_to_f16_bits(65504.0)), 65504.0);
        // Underflow to signed zero.
        assert_eq!(f16_bits_to_f32(f32_to_f16_bits(1e-30)).to_bits(), 0);
        assert_eq!(
            f16_bits_to_f32(f32_to_f16_bits(-1e-30)).to_bits(),
            (-0.0f32).to_bits()
        );
    }

    #[test]
    fn f16_rounds_to_nearest_even() {
        // 1 + 2^-11 is exactly halfway between 1.0 and the next half up
        // (1 + 2^-10); the even mantissa (1.0) wins.
        let halfway = 1.0 + f32::from_bits(0x3A00_0000); // 2^-11
        assert_eq!(f16_bits_to_f32(f32_to_f16_bits(halfway)), 1.0);
        // Just above halfway rounds up.
        let above = 1.0 + f32::from_bits(0x3A00_0001) * 1.001;
        assert_eq!(
            f16_bits_to_f32(f32_to_f16_bits(above)),
            1.0 + f32::from_bits(0x3A80_0000) // 1 + 2^-10
        );
    }

    #[test]
    fn f16_subnormals_are_exact_multiples_of_2_pow_minus_24() {
        let step = f32::from_bits(0x3380_0000); // 2^-24
        for m in [1u32, 2, 3, 511, 1023] {
            let x = (m as f32) * step;
            let back = f16_bits_to_f32(f32_to_f16_bits(x));
            assert_eq!(back, x, "subnormal {m} · 2^-24");
        }
    }

    #[test]
    fn i8_codec_is_exact_at_the_extremes_and_at_zero() {
        let reference = vec![0.0f32; 4];
        let updated = vec![1.27, -1.27, 0.0, 0.635];
        let p = Compression::QuantI8.encode_unit(&updated, &reference);
        match &p {
            Payload::I8 { scale, codes } => {
                assert!((scale - 0.01).abs() < 1e-9);
                assert_eq!(codes, &[127, -127, 0, 64]);
            }
            other => panic!("unexpected payload {other:?}"),
        }
        let mut out = reference.clone();
        p.decode_into(&mut out);
        assert!((out[0] - 1.27).abs() < 1e-6);
        assert!((out[1] + 1.27).abs() < 1e-6);
        assert_eq!(out[2], 0.0);
    }

    #[test]
    fn i8_zero_delta_unit_decodes_to_the_reference_exactly() {
        let reference = vec![3.5f32, -2.25, 0.125];
        let p = Compression::QuantI8.encode_unit(&reference, &reference);
        let mut out = reference.clone();
        p.decode_into(&mut out);
        assert_eq!(out, reference);
    }

    #[test]
    fn i8_poisons_the_scale_on_non_finite_deltas() {
        let reference = vec![0.0f32; 3];
        let updated = vec![1.0, f32::NAN, 2.0];
        let p = Compression::QuantI8.encode_unit(&updated, &reference);
        let mut out = reference.clone();
        p.decode_into(&mut out);
        assert!(
            out.iter().all(|v| v.is_nan()),
            "poisoned scale must corrupt every decoded scalar: {out:?}"
        );
    }

    #[test]
    fn topk_keeps_largest_magnitudes_with_index_tiebreak() {
        let deltas = [1.0f32, -3.0, 2.0, -2.0, 0.5];
        assert_eq!(top_k_positions(&deltas, 2), vec![1, 2]);
        // |2.0| ties |-2.0|: the lower index (2) wins.
        assert_eq!(top_k_positions(&deltas, 3), vec![1, 2, 3]);
        assert_eq!(top_k_positions(&deltas, 0), Vec::<usize>::new());
        assert_eq!(top_k_positions(&deltas, 99), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn topk_ranks_nan_above_every_finite_magnitude() {
        let deltas = [1.0f32, f32::NAN, 1e30];
        assert_eq!(top_k_positions(&deltas, 1), vec![1]);
    }

    /// Value `i` of unit `u`, spread by `salt`.
    fn layered_value(u: usize, i: usize, salt: f32) -> f32 {
        ((i * 7 + u * 13) % 29) as f32 * 0.037 - 0.5 + salt * (i % 5) as f32
    }

    /// Units of uneven sizes (one too small for top-k to keep anything of),
    /// values spread by `salt`, under a layout of their own.
    fn layered_set(shapes: &[(&str, usize, usize)], salt: f32) -> ParamSet {
        let mut ps = ParamSet::new();
        for (u, &(name, rows, cols)) in shapes.iter().enumerate() {
            let values = (0..rows * cols)
                .map(|i| layered_value(u, i, salt))
                .collect();
            ps.add(name, fedda_tensor::Matrix::from_vec(rows, cols, values));
        }
        ps
    }

    /// A copy of `reference` — its layout — with the values `layered_set`
    /// gives `salt`: a report trained from that broadcast.
    fn moved(reference: &ParamSet, salt: f32) -> ParamSet {
        let mut ps = reference.clone();
        for id in reference.ids() {
            for (i, v) in ps.unit_mut(id).iter_mut().enumerate() {
                *v = layered_value(id.index(), i, salt);
            }
        }
        ps
    }

    fn bits(ps: &ParamSet) -> Vec<Vec<u32>> {
        ps.iter()
            .map(|(_, unit)| unit.iter().map(|v| v.to_bits()).collect())
            .collect()
    }

    #[test]
    fn decode_arrival_in_place_equals_reconstruct() {
        const SHAPES: &[(&str, usize, usize)] =
            &[("a", 6, 4), ("b", 1, 3), ("c", 5, 5), ("d", 1, 3)];
        let reference = Arc::new(layered_set(SHAPES, 0.0));
        let updated = moved(&reference, 0.011);
        // Unit 1 is masked out; unit 3 is requested, but top-k at 0.25
        // keeps none of its 3 scalars and drops it from the wire entirely.
        let mask = [true, false, true, true];
        // Fewer units, another shape, another name, the same units built
        // apart (equal in all but the shared layout), and no values at all.
        let mismatched = [
            layered_set(&SHAPES[..3], 0.011),
            layered_set(&[("a", 4, 6), ("b", 1, 3), ("c", 5, 5), ("d", 1, 3)], 0.011),
            layered_set(&[("a", 6, 4), ("b", 1, 3), ("c", 5, 5), ("e", 1, 3)], 0.011),
            layered_set(SHAPES, 0.011),
            ParamSet::new(),
        ];
        for codec in [
            Compression::Identity,
            Compression::QuantI8,
            Compression::QuantF16,
            Compression::TopK { frac: 0.25 },
        ] {
            let report = codec.compress(&Delta {
                updated: &updated,
                reference: &reference,
                mask: &mask,
            });
            assert!(
                report.units.iter().all(|cu| cu.unit != 1),
                "{codec:?}: masked unit encoded"
            );
            let encodes_last = report.units.iter().any(|cu| cu.unit == 3);
            assert_eq!(encodes_last, !matches!(codec, Compression::TopK { .. }));
            let want = report.reconstruct(&reference);
            let want_delta: Vec<u32> = want
                .unit_l2_distances(&reference)
                .iter()
                .map(|d| d.to_bits())
                .collect();
            // The matching buffer decodes in place, into its own memory;
            // each mismatched one takes the fallback, a clone.
            for (b, buffer) in std::iter::once(&updated).chain(&mismatched).enumerate() {
                let mut d = Delivery {
                    client: 3,
                    dispatch_pos: 0,
                    dispatch_round: 0,
                    ret: crate::ClientReturn {
                        client: 3,
                        params: buffer.clone(),
                        unit_delta: Vec::new(),
                        encoded: None,
                    },
                    mask: mask.to_vec(),
                    charge: report.charge(),
                    payload: Some(InFlight {
                        report: report.clone(),
                        reference: Arc::clone(&reference),
                    }),
                };
                let memory = d.ret.params.values().as_ptr();
                decode_arrival(&mut d);
                assert_eq!(
                    d.ret.params.values().as_ptr() == memory,
                    b == 0,
                    "buffer {b}"
                );
                assert!(d.payload.is_none(), "decoded exactly once");
                assert_eq!(bits(&d.ret.params), bits(&want), "{codec:?}, buffer {b}");
                let got_delta: Vec<u32> = d.ret.unit_delta.iter().map(|x| x.to_bits()).collect();
                assert_eq!(got_delta, want_delta, "{codec:?}, buffer {b}");
                // Untransmitted units decode to the reference exactly.
                assert_eq!(bits(&d.ret.params)[1], bits(&reference)[1]);
            }
        }
    }

    /// The payload-only report: one that carries no parameter buffer
    /// decodes to the bits of one that kept its buffer — clean or
    /// corrupted, under every codec — and reading it unit by unit through
    /// [`InFlight::unit`] gives those bits too.
    #[test]
    fn released_buffer_decodes_like_the_kept_one() {
        use crate::faults::{corrupt_params, Corruption};
        const SHAPES: &[(&str, usize, usize)] = &[("a", 6, 4), ("b", 1, 3), ("c", 5, 5)];
        let reference = Arc::new(layered_set(SHAPES, 0.0));
        let mask = [true, false, true];
        let corruptions = [
            None,
            Some(Corruption::NaN),
            Some(Corruption::Inf),
            Some(Corruption::Garbage { scale: 1e6 }),
        ];
        for codec in [
            Compression::Identity,
            Compression::QuantI8,
            Compression::QuantF16,
            Compression::TopK { frac: 0.25 },
        ] {
            for corruption in corruptions {
                // As the worker builds it: train, corrupt, then encode.
                let mut params = moved(&reference, 0.011);
                if let Some(kind) = corruption {
                    corrupt_params(&mut params, &reference, kind);
                }
                let report = codec.compress(&Delta {
                    updated: &params,
                    reference: &reference,
                    mask: &mask,
                });
                let in_flight = || InFlight {
                    report: report.clone(),
                    reference: Arc::clone(&reference),
                };
                let decoded = |params: ParamSet| {
                    let mut d = Delivery {
                        client: 5,
                        dispatch_pos: 1,
                        dispatch_round: 2,
                        ret: crate::ClientReturn {
                            client: 5,
                            params,
                            unit_delta: Vec::new(),
                            encoded: None,
                        },
                        mask: mask.to_vec(),
                        charge: report.charge(),
                        payload: Some(in_flight()),
                    };
                    decode_arrival(&mut d);
                    let delta: Vec<u32> = d.ret.unit_delta.iter().map(|x| x.to_bits()).collect();
                    (d.ret.client, bits(&d.ret.params), delta)
                };
                let kept = decoded(params.clone());
                let released = decoded(ParamSet::new());
                assert_eq!(kept, released, "{codec:?}, {corruption:?}");
                let reading = in_flight();
                let mut scratch = Vec::new();
                let read: Vec<Vec<u32>> = (reference.ids())
                    .map(|id| {
                        reading
                            .unit(id, &mut scratch)
                            .iter()
                            .map(|v| v.to_bits())
                            .collect()
                    })
                    .collect();
                assert_eq!(read, released.1, "{codec:?}, {corruption:?}");
                // The corruption is still there for the guard to find.
                let poisoned = matches!(corruption, Some(Corruption::NaN | Corruption::Inf));
                let non_finite = released.2.iter().any(|&d| !f32::from_bits(d).is_finite());
                assert_eq!(non_finite, poisoned, "{codec:?}, {corruption:?}");
            }
        }
    }

    #[test]
    fn charge_formulas_are_exact_per_codec() {
        let raw = Compressed {
            units: vec![CompressedUnit {
                unit: 0,
                payload: Payload::Raw(vec![0; 6]),
            }],
        };
        assert_eq!(
            raw.charge(),
            UplinkCharge {
                units: 1,
                scalars: 6,
                bytes: 24
            }
        );
        let mixed = Compressed {
            units: vec![
                CompressedUnit {
                    unit: 0,
                    payload: Payload::F16(vec![0; 6]),
                },
                CompressedUnit {
                    unit: 2,
                    payload: Payload::I8 {
                        scale: 0.0,
                        codes: vec![0; 4],
                    },
                },
                CompressedUnit {
                    unit: 3,
                    payload: Payload::TopK(vec![(0, 0), (7, 0)]),
                },
            ],
        };
        assert_eq!(
            mixed.charge(),
            UplinkCharge {
                units: 3,
                scalars: 6 + 4 + 2,
                bytes: 12 + 4 + 16
            }
        );
    }

    #[test]
    fn from_mask_matches_the_uncompressed_accounting() {
        let sizes = [3usize, 5, 7];
        let charge = UplinkCharge::from_mask(&[true, false, true], &sizes);
        assert_eq!(
            charge,
            UplinkCharge {
                units: 2,
                scalars: 10,
                bytes: 40
            }
        );
        assert_eq!(
            UplinkCharge::from_mask(&[], &sizes),
            UplinkCharge::default()
        );
    }

    #[test]
    fn compression_parses_and_round_trips_labels() {
        for s in ["ident", "q8", "f16", "topk:0.25"] {
            let c: Compression = s.parse().unwrap();
            assert_eq!(c.label(), s);
            assert!(c.validate().is_ok());
        }
        assert!("gzip".parse::<Compression>().is_err());
        assert!("topk:0".parse::<Compression>().is_err());
        assert!("topk:0.6".parse::<Compression>().is_err());
        assert!("topk:abc".parse::<Compression>().is_err());
        assert!(Compression::TopK { frac: f64::NAN }.validate().is_err());
    }

    #[test]
    fn k_of_floors() {
        assert_eq!(k_of(0.5, 5), 2);
        assert_eq!(k_of(0.25, 4), 1);
        assert_eq!(k_of(1e-6, 1000), 0);
    }
}
