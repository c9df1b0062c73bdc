//! Blue Gene/Q hardware location codes.
//!
//! RAS events name the hardware element they were raised on using a
//! hierarchical location code, e.g. `R17-M0-N08-J23-C05`:
//!
//! * `R17` — rack 17 (row `1`, column `7`; Mira has 3 rows × 16 columns),
//! * `M0` — midplane 0 of the rack (each rack holds 2),
//! * `N08` — node board 8 of the midplane (each midplane holds 16),
//! * `J23` — compute card (node) 23 of the board (each board holds 32),
//! * `C05` — core 5 of the node (16 application cores).
//!
//! Events are raised at any level of the hierarchy (a coolant event names a
//! rack, a DDR event names a compute card, ...), so [`Location`] is a
//! variable-granularity value with containment tests used by the job↔RAS
//! spatial join and by the locality analysis.

use std::fmt;
use std::str::FromStr;

use crate::machine::Machine;

/// Granularity level of a [`Location`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Granularity {
    /// Whole rack (e.g. coolant, bulk power events).
    Rack,
    /// One midplane of a rack.
    Midplane,
    /// One node board of a midplane.
    NodeBoard,
    /// One compute card (node) of a node board.
    ComputeCard,
    /// One core of a compute card.
    Core,
}

impl fmt::Display for Granularity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Granularity::Rack => "rack",
            Granularity::Midplane => "midplane",
            Granularity::NodeBoard => "node-board",
            Granularity::ComputeCard => "compute-card",
            Granularity::Core => "core",
        };
        f.write_str(name)
    }
}

/// A hardware location at any granularity of the BG/Q hierarchy.
///
/// Internally stored as the full coordinate tuple plus the granularity; the
/// coordinates beyond the granularity are zero and ignored. Ordering is the
/// physical order (rack, midplane, board, card, core) with coarser
/// granularities sorting before their children.
///
/// # Examples
///
/// ```
/// use bgq_model::location::Location;
///
/// let card: Location = "R17-M0-N08-J23".parse()?;
/// let rack = card.rack_location();
/// assert_eq!(rack.to_string(), "R17");
/// assert!(rack.contains(&card));
/// assert!(!card.contains(&rack));
/// # Ok::<(), bgq_model::location::ParseLocationError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Location {
    rack: u8,
    midplane: u8,
    board: u8,
    card: u8,
    core: u8,
    granularity: Granularity,
}

impl Location {
    /// A whole-rack location.
    ///
    /// # Panics
    ///
    /// Panics if `rack` is outside the Mira machine (48 racks).
    pub fn rack(rack: u8) -> Self {
        assert!(
            (rack as usize) < Machine::MIRA.racks(),
            "rack index {rack} out of range"
        );
        Location {
            rack,
            midplane: 0,
            board: 0,
            card: 0,
            core: 0,
            granularity: Granularity::Rack,
        }
    }

    /// A midplane location.
    ///
    /// # Panics
    ///
    /// Panics if any coordinate is out of range for Mira.
    pub fn midplane(rack: u8, midplane: u8) -> Self {
        let mut loc = Location::rack(rack);
        assert!(
            (midplane as usize) < Machine::MIRA.midplanes_per_rack(),
            "midplane index {midplane} out of range"
        );
        loc.midplane = midplane;
        loc.granularity = Granularity::Midplane;
        loc
    }

    /// A node-board location.
    ///
    /// # Panics
    ///
    /// Panics if any coordinate is out of range for Mira.
    pub fn node_board(rack: u8, midplane: u8, board: u8) -> Self {
        let mut loc = Location::midplane(rack, midplane);
        assert!(
            (board as usize) < Machine::MIRA.boards_per_midplane(),
            "node board index {board} out of range"
        );
        loc.board = board;
        loc.granularity = Granularity::NodeBoard;
        loc
    }

    /// A compute-card (node) location.
    ///
    /// # Panics
    ///
    /// Panics if any coordinate is out of range for Mira.
    pub fn compute_card(rack: u8, midplane: u8, board: u8, card: u8) -> Self {
        let mut loc = Location::node_board(rack, midplane, board);
        assert!(
            (card as usize) < Machine::MIRA.cards_per_board(),
            "compute card index {card} out of range"
        );
        loc.card = card;
        loc.granularity = Granularity::ComputeCard;
        loc
    }

    /// A core location.
    ///
    /// # Panics
    ///
    /// Panics if any coordinate is out of range for Mira.
    pub fn core(rack: u8, midplane: u8, board: u8, card: u8, core: u8) -> Self {
        let mut loc = Location::compute_card(rack, midplane, board, card);
        assert!(
            (core as usize) < Machine::MIRA.cores_per_card(),
            "core index {core} out of range"
        );
        loc.core = core;
        loc.granularity = Granularity::Core;
        loc
    }

    /// The granularity at which this location names hardware.
    pub fn granularity(&self) -> Granularity {
        self.granularity
    }

    /// The rack index, `0..48`.
    pub fn rack_index(&self) -> u8 {
        self.rack
    }

    /// The midplane index within the rack, if this location is at midplane
    /// granularity or finer.
    pub fn midplane_index(&self) -> Option<u8> {
        (self.granularity >= Granularity::Midplane).then_some(self.midplane)
    }

    /// The node-board index within the midplane, if at board granularity or
    /// finer.
    pub fn board_index(&self) -> Option<u8> {
        (self.granularity >= Granularity::NodeBoard).then_some(self.board)
    }

    /// The compute-card index within the board, if at card granularity or
    /// finer.
    pub fn card_index(&self) -> Option<u8> {
        (self.granularity >= Granularity::ComputeCard).then_some(self.card)
    }

    /// The core index within the card, if at core granularity.
    pub fn core_index(&self) -> Option<u8> {
        (self.granularity >= Granularity::Core).then_some(self.core)
    }

    /// This location truncated to rack granularity.
    pub fn rack_location(&self) -> Location {
        Location::rack(self.rack)
    }

    /// This location truncated to midplane granularity, if possible.
    ///
    /// Returns `None` when the location is a whole rack: a rack-level event
    /// does not identify a single midplane.
    pub fn midplane_location(&self) -> Option<Location> {
        self.midplane_index()
            .map(|m| Location::midplane(self.rack, m))
    }

    /// This location truncated to node-board granularity, if possible.
    pub fn board_location(&self) -> Option<Location> {
        self.board_index()
            .map(|b| Location::node_board(self.rack, self.midplane, b))
    }

    /// The global linear midplane index (`rack * 2 + midplane`), if the
    /// location is at midplane granularity or finer.
    ///
    /// This is the coordinate system used by [`crate::block::Block`].
    pub fn midplane_linear(&self) -> Option<u16> {
        self.midplane_index()
            .map(|m| u16::from(self.rack) * Machine::MIRA.midplanes_per_rack() as u16 + u16::from(m))
    }

    /// `true` if `other` names hardware contained in (or equal to) the
    /// hardware named by `self`.
    ///
    /// A rack contains its midplanes, boards, cards, and cores; containment
    /// never holds upward (`card.contains(&rack)` is false) nor between
    /// siblings.
    pub fn contains(&self, other: &Location) -> bool {
        if other.granularity < self.granularity || self.rack != other.rack {
            return false;
        }
        let g = self.granularity;
        (g < Granularity::Midplane || self.midplane == other.midplane)
            && (g < Granularity::NodeBoard || self.board == other.board)
            && (g < Granularity::ComputeCard || self.card == other.card)
            && (g < Granularity::Core || self.core == other.core)
    }

    /// `true` if the two locations name overlapping hardware (one contains
    /// the other).
    pub fn overlaps(&self, other: &Location) -> bool {
        self.contains(other) || other.contains(self)
    }

    /// Topological proximity between two locations: `0` same board (or
    /// finer agreement), `1` same midplane, `2` same rack, `3` different
    /// racks. Coarse locations compare by their common prefix.
    ///
    /// Used by the locality analysis to score how tightly clustered fatal
    /// events are.
    pub fn proximity(&self, other: &Location) -> u8 {
        if self.rack != other.rack {
            return 3;
        }
        let both_fine = |g: Granularity| self.granularity >= g && other.granularity >= g;
        if !both_fine(Granularity::Midplane) || self.midplane != other.midplane {
            return 2;
        }
        if !both_fine(Granularity::NodeBoard) || self.board != other.board {
            return 1;
        }
        0
    }
}

impl fmt::Display for Location {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let row = self.rack / 16;
        let col = self.rack % 16;
        write!(f, "R{row}{col:X}")?;
        if self.granularity >= Granularity::Midplane {
            write!(f, "-M{}", self.midplane)?;
        }
        if self.granularity >= Granularity::NodeBoard {
            write!(f, "-N{:02}", self.board)?;
        }
        if self.granularity >= Granularity::ComputeCard {
            write!(f, "-J{:02}", self.card)?;
        }
        if self.granularity >= Granularity::Core {
            write!(f, "-C{:02}", self.core)?;
        }
        Ok(())
    }
}

/// Error produced when parsing a [`Location`] from text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseLocationError {
    input: String,
    reason: &'static str,
}

impl ParseLocationError {
    fn new(input: &str, reason: &'static str) -> Self {
        ParseLocationError {
            input: input.to_owned(),
            reason,
        }
    }
}

impl fmt::Display for ParseLocationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid location {:?}: {}", self.input, self.reason)
    }
}

impl std::error::Error for ParseLocationError {}

impl FromStr for Location {
    type Err = ParseLocationError;

    /// Byte-level parse: `-` is ASCII, so splitting the bytes on it yields
    /// exactly the segments a `str` split would, and no multi-byte
    /// character can ever be mistaken for a digit or a level prefix.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = |reason| ParseLocationError::new(s, reason);
        let mut parts = s.as_bytes().split(|&b| b == b'-');
        let rack_part = parts
            .next()
            .filter(|p| !p.is_empty())
            .ok_or_else(|| err("empty input"))?;
        let rack_digits = rack_part
            .strip_prefix(b"R")
            .ok_or_else(|| err("expected rack segment like R17"))?;
        let &[row, col] = rack_digits else {
            return Err(err("rack segment must be R<row><col>"));
        };
        if !row.is_ascii_digit() {
            return Err(err("rack row must be a decimal digit"));
        }
        let col = char::from(col)
            .to_digit(16)
            .ok_or_else(|| err("rack column must be a hex digit"))?;
        let machine = Machine::MIRA;
        // row ≤ 9 and col ≤ 15, so the index fits a u8 without overflow.
        let rack = (row - b'0') * 16 + col as u8;
        if usize::from(rack) >= machine.racks() {
            return Err(err("rack index out of range"));
        }
        let levels = [
            (b'M', machine.midplanes_per_rack()),
            (b'N', machine.boards_per_midplane()),
            (b'J', machine.cards_per_board()),
            (b'C', machine.cores_per_card()),
        ];
        let mut below = [0u8; 4];
        let mut depth = 0;
        for (slot, (prefix, max)) in below.iter_mut().zip(levels) {
            let Some(seg) = parts.next() else { break };
            *slot = segment_index(seg, prefix, max).map_err(err)?;
            depth += 1;
        }
        if depth == levels.len() && parts.next().is_some() {
            return Err(err("trailing segments after core"));
        }
        let [midplane, board, card, core] = below;
        Ok(Location {
            rack,
            midplane,
            board,
            card,
            core,
            granularity: GRANULARITIES[depth],
        })
    }
}

/// Granularity by the number of segments below the rack.
const GRANULARITIES: [Granularity; 5] = [
    Granularity::Rack,
    Granularity::Midplane,
    Granularity::NodeBoard,
    Granularity::ComputeCard,
    Granularity::Core,
];

/// Parses one `<prefix><index>` segment below the rack. The index
/// follows `u8::from_str` exactly — one optional leading `+`, then at
/// least one ASCII digit, any number of leading zeros, at most 255 —
/// and must be below `max`.
fn segment_index(seg: &[u8], prefix: u8, max: usize) -> Result<u8, &'static str> {
    const NOT_DECIMAL: &str = "segment index must be decimal";
    let digits = seg
        .strip_prefix(&[prefix])
        .ok_or("unexpected segment prefix")?;
    let digits = digits.strip_prefix(b"+").unwrap_or(digits);
    if digits.is_empty() {
        return Err(NOT_DECIMAL);
    }
    let mut v = 0u8;
    for &b in digits {
        if !b.is_ascii_digit() {
            return Err(NOT_DECIMAL);
        }
        v = v
            .checked_mul(10)
            .and_then(|v| v.checked_add(b - b'0'))
            .ok_or(NOT_DECIMAL)?;
    }
    if usize::from(v) >= max {
        return Err("segment index out of range");
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_uses_row_and_hex_column() {
        assert_eq!(Location::rack(0).to_string(), "R00");
        assert_eq!(Location::rack(15).to_string(), "R0F");
        assert_eq!(Location::rack(16).to_string(), "R10");
        assert_eq!(Location::rack(47).to_string(), "R2F");
        assert_eq!(
            Location::core(23, 1, 8, 23, 5).to_string(),
            "R17-M1-N08-J23-C05"
        );
    }

    #[test]
    fn parse_all_granularities() {
        for text in ["R00", "R2F-M1", "R17-M0-N15", "R17-M0-N08-J31", "R17-M0-N08-J23-C15"] {
            let loc: Location = text.parse().unwrap();
            assert_eq!(loc.to_string(), text);
        }
    }

    #[test]
    fn parse_rejects_bad_inputs() {
        for bad in [
            "",
            "X00",
            "R",
            "R3F",        // row 3 does not exist on Mira
            "R0G",        // bad hex column
            "R00-M2",     // midplane out of range
            "R00-M0-N16", // board out of range
            "R00-M0-N00-J32",
            "R00-M0-N00-J00-C16",
            "R00-M0-N00-J00-C00-X1",
            "R00-N00",    // skipped level
        ] {
            assert!(bad.parse::<Location>().is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn non_ascii_input_is_an_error_not_a_panic() {
        // "Ré" has a two-byte rack "digit"; byte-length checks followed
        // by str slicing used to panic on it.
        for bad in [
            "Ré",
            "Ré-M0",
            "R1é",
            "é",
            "R17-Mé",
            "R17-M0-N0é",
            "R17-M0-N08-J23-C05-é",
        ] {
            let err = bad.parse::<Location>().expect_err(bad);
            assert!(
                err.to_string()
                    .starts_with(&format!("invalid location {bad:?}: ")),
                "{err}"
            );
        }
        assert_eq!(
            "Ré".parse::<Location>().unwrap_err().to_string(),
            "invalid location \"Ré\": rack row must be a decimal digit"
        );
    }

    #[test]
    fn segment_indices_follow_u8_parsing() {
        let ok = |text: &str| text.parse::<Location>().unwrap().to_string();
        assert_eq!(ok("R1a"), "R1A");
        assert_eq!(ok("R17-M+1"), "R17-M1");
        assert_eq!(ok("R17-M0-N0008"), "R17-M0-N08");
        assert_eq!(ok("R17-M0-N08-J+031"), "R17-M0-N08-J31");
        let reason = |text: &str| text.parse::<Location>().unwrap_err().reason;
        assert_eq!(reason("R17-"), "unexpected segment prefix");
        assert_eq!(reason("-R17"), "empty input");
        assert_eq!(reason("R17-M"), "segment index must be decimal");
        assert_eq!(reason("R17-M+"), "segment index must be decimal");
        assert_eq!(reason("R17-M++1"), "segment index must be decimal");
        assert_eq!(reason("R17-M-1"), "segment index must be decimal");
        assert_eq!(reason("R17-M256"), "segment index must be decimal");
        assert_eq!(reason("R17-M255"), "segment index out of range");
        assert_eq!(reason("R+1"), "rack row must be a decimal digit");
        assert_eq!(reason("R1+"), "rack column must be a hex digit");
        assert_eq!(reason("R30"), "rack index out of range");
        assert_eq!(
            reason("R17-M0-N08-J23-C05-"),
            "trailing segments after core"
        );
    }

    #[test]
    fn containment_is_downward_only() {
        let rack: Location = "R17".parse().unwrap();
        let mid: Location = "R17-M0".parse().unwrap();
        let board: Location = "R17-M0-N08".parse().unwrap();
        let card: Location = "R17-M0-N08-J23".parse().unwrap();
        let core: Location = "R17-M0-N08-J23-C05".parse().unwrap();

        for fine in [mid, board, card, core] {
            assert!(rack.contains(&fine));
            assert!(!fine.contains(&rack) || fine == rack);
        }
        assert!(mid.contains(&core));
        assert!(board.contains(&card));
        assert!(card.contains(&core));
        assert!(card.contains(&card));

        let other_mid: Location = "R17-M1".parse().unwrap();
        assert!(!mid.contains(&other_mid));
        assert!(!other_mid.contains(&core));
    }

    #[test]
    fn overlap_is_symmetric() {
        let mid: Location = "R17-M0".parse().unwrap();
        let card: Location = "R17-M0-N08-J23".parse().unwrap();
        assert!(mid.overlaps(&card));
        assert!(card.overlaps(&mid));
        let other: Location = "R18".parse().unwrap();
        assert!(!card.overlaps(&other));
    }

    #[test]
    fn proximity_levels() {
        let a: Location = "R17-M0-N08-J23".parse().unwrap();
        assert_eq!(a.proximity(&"R17-M0-N08-J01".parse().unwrap()), 0);
        assert_eq!(a.proximity(&"R17-M0-N09".parse().unwrap()), 1);
        assert_eq!(a.proximity(&"R17-M1-N08".parse().unwrap()), 2);
        assert_eq!(a.proximity(&"R18-M0-N08".parse().unwrap()), 3);
        // Coarse locations only agree down to their own granularity.
        assert_eq!(a.proximity(&"R17".parse().unwrap()), 2);
    }

    #[test]
    fn midplane_linear_indexing() {
        assert_eq!(Location::midplane(0, 0).midplane_linear(), Some(0));
        assert_eq!(Location::midplane(0, 1).midplane_linear(), Some(1));
        assert_eq!(Location::midplane(47, 1).midplane_linear(), Some(95));
        assert_eq!(Location::rack(3).midplane_linear(), None);
    }

    #[test]
    fn truncation_helpers() {
        let core: Location = "R17-M1-N08-J23-C05".parse().unwrap();
        assert_eq!(core.rack_location().to_string(), "R17");
        assert_eq!(core.midplane_location().unwrap().to_string(), "R17-M1");
        assert_eq!(core.board_location().unwrap().to_string(), "R17-M1-N08");
        assert_eq!(Location::rack(1).midplane_location(), None);
    }
}
