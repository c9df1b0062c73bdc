//! Reference location-code parser: the original `str::split`-based
//! implementation of `Location::from_str`.
//!
//! Production parses location codes at the byte level (every RAS row of
//! a 2001-day load goes through it); this keeps the first, obviously
//! structured version — split on `-`, strip each level's prefix, hand
//! the digits to `u8::from_str` — as the trusted side of the
//! differential test. It is kept **exactly** as it was, including its
//! one defect: a two-byte character in the rack's digit position passes
//! the byte-length check and then panics on a `str` slice that is not
//! on a char boundary. The differential test treats that panic as "the
//! reference has no answer" and only demands that production rejects.

use bgq_model::location::Location;
use bgq_model::machine::Machine;

/// Parses `s` the way `Location::from_str` originally did.
///
/// Errors are the full rendered message of production's
/// `ParseLocationError` (`invalid location "<input>": <reason>`).
///
/// # Errors
///
/// Returns the rendered parse-error message for any invalid input.
///
/// # Panics
///
/// Panics when the two bytes after a leading `R` form one multi-byte
/// character (e.g. `"Ré"`), as the original did.
pub fn parse_location(s: &str) -> Result<Location, String> {
    let fail = |reason: &str| format!("invalid location {s:?}: {reason}");
    let mut parts = s.split('-');
    let rack_part = parts
        .next()
        .filter(|p| !p.is_empty())
        .ok_or_else(|| fail("empty input"))?;
    let rack_digits = rack_part
        .strip_prefix('R')
        .ok_or_else(|| fail("expected rack segment like R17"))?;
    if rack_digits.len() != 2 {
        return Err(fail("rack segment must be R<row><col>"));
    }
    let row = rack_digits[0..1]
        .parse::<u8>()
        .map_err(|_| fail("rack row must be a decimal digit"))?;
    let col = u8::from_str_radix(&rack_digits[1..2], 16)
        .map_err(|_| fail("rack column must be a hex digit"))?;
    let rack = row
        .checked_mul(16)
        .and_then(|r| r.checked_add(col))
        .filter(|&r| (r as usize) < Machine::MIRA.racks())
        .ok_or_else(|| fail("rack index out of range"))?;

    let expect = |prefix: char, max: usize, input: Option<&str>| -> Result<Option<u8>, String> {
        let Some(seg) = input else { return Ok(None) };
        let digits = seg
            .strip_prefix(prefix)
            .ok_or_else(|| fail("unexpected segment prefix"))?;
        let v = digits
            .parse::<u8>()
            .map_err(|_| fail("segment index must be decimal"))?;
        if (v as usize) >= max {
            return Err(fail("segment index out of range"));
        }
        Ok(Some(v))
    };

    let machine = Machine::MIRA;
    let Some(m) = expect('M', machine.midplanes_per_rack(), parts.next())? else {
        return Ok(Location::rack(rack));
    };
    let Some(n) = expect('N', machine.boards_per_midplane(), parts.next())? else {
        return Ok(Location::midplane(rack, m));
    };
    let Some(j) = expect('J', machine.cards_per_board(), parts.next())? else {
        return Ok(Location::node_board(rack, m, n));
    };
    let Some(c) = expect('C', machine.cores_per_card(), parts.next())? else {
        return Ok(Location::compute_card(rack, m, n, j));
    };
    if parts.next().is_some() {
        return Err(fail("trailing segments after core"));
    }
    Ok(Location::core(rack, m, n, j, c))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_granularity() {
        for text in [
            "R00",
            "R2F-M1",
            "R17-M0-N15",
            "R17-M0-N08-J31",
            "R17-M0-N08-J23-C15",
        ] {
            assert_eq!(parse_location(text).unwrap().to_string(), text);
        }
    }

    #[test]
    fn renders_production_error_messages() {
        assert_eq!(
            parse_location("R00-M2").unwrap_err(),
            "invalid location \"R00-M2\": segment index out of range"
        );
    }

    #[test]
    #[should_panic(expected = "char boundary")]
    fn keeps_the_original_multibyte_panic() {
        let _ = parse_location("Ré");
    }
}
