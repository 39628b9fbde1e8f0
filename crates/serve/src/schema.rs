//! The wire-schema registry: the one definition of the EMDQ version
//! window, frame-type codes and extension tags.
//!
//! Each family is written once, as a list. The list yields both the
//! `u8` constants the codec in [`protocol`](crate::protocol) matches on
//! and the `(name, value)` table `tests/protocol.rs` iterates to
//! round-trip every frame kind × extension tag — so the codec and the
//! registry cannot disagree, and a row added here fails that test
//! until the codec carries it.
//!
//! Adding a frame or tag therefore means touching two places on
//! purpose: the code (one row here plus its codec arms in
//! `protocol.rs`) and DESIGN.md §12 (the contract for other
//! implementers), whose mention a test in `tests/protocol.rs` demands.

/// Highest protocol revision this build speaks. Version 2 adds tagged
/// trailing extension blocks (trace context, per-shard provenance);
/// frames that carry no extension are still emitted as version 1, so
/// pre-extension peers interoperate until a frame actually needs the
/// new layout.
pub const VERSION: u8 = 2;

/// Oldest protocol revision still accepted on read.
pub const MIN_VERSION: u8 = 1;

/// Defines one family of wire constants: the `(name, value)` table and
/// a module holding the same values as `u8` constants.
macro_rules! family {
    (
        $(#[$table_doc:meta])*
        $table:ident / $module:ident {
            $($(#[$doc:meta])* $name:ident = $value:literal,)*
        }
    ) => {
        $(#[$table_doc])*
        pub const $table: &[(&str, u8)] = &[$((stringify!($name), $value)),*];

        pub(crate) mod $module {
            $($(#[$doc])* pub const $name: u8 = $value;)*
        }
    };
}

family! {
    /// Client-to-server frame kinds as `(constant name, wire code)`.
    /// Request codes never set the high bit.
    REQUEST_FRAMES / request {
        KNN = 0x01,
        RANGE = 0x02,
        HEALTH = 0x03,
        STATS = 0x04,
        SHUTDOWN = 0x05,
    }
}

family! {
    /// Server-to-client frame kinds as `(constant name, wire code)`.
    /// Response codes always set the high bit.
    RESPONSE_FRAMES / response {
        RESULTS = 0x81,
        DEADLINE_EXCEEDED = 0x82,
        OVERLOADED = 0x83,
        HEALTH_REPORT = 0x84,
        STATS_REPORT = 0x85,
        SHUTDOWN_STARTED = 0x86,
        ERROR = 0x87,
    }
}

family! {
    /// Version-2 trailing extension-block tags as `(constant name, tag)`.
    /// Unknown tags are skipped whole on decode, so this space can grow
    /// without a version bump.
    EXTENSION_TAGS / ext {
        /// Request-side distributed trace context (17-byte body:
        /// trace id u64 LE, parent span id u64 LE, flags u8 bit0=sampled).
        TRACE = 0x01,
        /// Response-side per-shard `ShardProvenance` list.
        PROVENANCE = 0x02,
        /// Request-side retrieval mode (9-byte body: mode code u8,
        /// epsilon f64 LE). Absent means exact retrieval.
        MODE = 0x03,
        /// Response-side achieved retrieval tier (17-byte body: mode code
        /// u8, epsilon f64 LE, guaranteed recall f64 LE).
        MODE_INFO = 0x04,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_unique_and_classified_by_high_bit() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, code) in REQUEST_FRAMES {
            assert!(code & 0x80 == 0, "request {name} must not set the high bit");
            assert!(seen.insert(*code), "duplicate frame code {code:#04x}");
        }
        for (name, code) in RESPONSE_FRAMES {
            assert!(code & 0x80 != 0, "response {name} must set the high bit");
            assert!(seen.insert(*code), "duplicate frame code {code:#04x}");
        }
        let mut tags = std::collections::BTreeSet::new();
        for (name, tag) in EXTENSION_TAGS {
            assert!(tags.insert(*tag), "duplicate extension tag for {name}");
        }
    }

    #[test]
    fn names_are_screaming_snake_case() {
        for (name, _) in REQUEST_FRAMES
            .iter()
            .chain(RESPONSE_FRAMES)
            .chain(EXTENSION_TAGS)
        {
            assert!(
                !name.is_empty()
                    && name
                        .chars()
                        .all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_'),
                "registry name {name:?} must be SCREAMING_SNAKE_CASE"
            );
        }
    }
}
