//! The diver hand-signal message codebook (§3, Fig. 2).
//!
//! The app offers 240 predefined messages across eight categories — the
//! vocabulary professional divers cover with hand signals — with the 20
//! most common surfaced for quick access. A message ID fits in 8 bits; a
//! 16-bit packet carries two messages.

/// Message categories, mirroring the app's eight filter groups.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Category {
    /// Safety-critical signals (out of air, emergency, abort).
    Safety,
    /// Air/gas management.
    Air,
    /// Direction and navigation.
    Direction,
    /// Buddy coordination.
    Buddy,
    /// Marine life sightings.
    MarineLife,
    /// Equipment issues.
    Equipment,
    /// Physical condition.
    Condition,
    /// General communication.
    General,
}

impl Category {
    /// All categories in display order.
    pub const ALL: [Category; 8] = [
        Category::Safety,
        Category::Air,
        Category::Direction,
        Category::Buddy,
        Category::MarineLife,
        Category::Equipment,
        Category::Condition,
        Category::General,
    ];

    fn stem(&self) -> (&'static str, &'static [&'static str]) {
        match self {
            Category::Safety => (
                "safety",
                &[
                    "Emergency - help",
                    "Out of air",
                    "Share air",
                    "Abort dive",
                    "Ascend now",
                    "Stop - stay put",
                    "Danger ahead",
                    "Entangled",
                    "Decompression required",
                    "Missed deco stop",
                    "Free flow regulator",
                    "Surface immediately",
                    "Distress - assist buddy",
                    "Caught in current",
                    "Low visibility - hold line",
                    "Emergency ascent",
                    "Call boat",
                    "Need safety stop",
                    "Lost - regroup",
                    "Injury - cramp",
                    "Cannot equalize",
                    "Watch overhead",
                    "Line trap",
                    "Net hazard",
                    "Propeller noise",
                    "Strong surge",
                    "Cold - ending dive",
                    "Buddy missing",
                    "Tangled in kelp",
                    "Sharp object",
                ],
            ),
            Category::Air => (
                "air",
                &[
                    "Air OK",
                    "50 bar remaining",
                    "100 bar remaining",
                    "150 bar remaining",
                    "Half tank",
                    "Reserve reached",
                    "Check your air",
                    "How much air?",
                    "Switching to backup",
                    "Octopus ready",
                    "Air sharing drill",
                    "Gas switch",
                    "Rich mix",
                    "Lean mix",
                    "Check SPG",
                    "Slow breathing",
                    "Air consumption high",
                    "Tank valve check",
                    "Regulator issue",
                    "Bubbles from tank",
                    "O-ring leak",
                    "Stage bottle",
                    "Pony bottle",
                    "Check manifold",
                    "Isolator closed",
                    "Deco gas ready",
                    "Travel gas",
                    "Analyze mix",
                    "Top up tank",
                    "Turn pressure reached",
                ],
            ),
            Category::Direction => (
                "direction",
                &[
                    "Go up",
                    "Go down",
                    "Turn around",
                    "Go left",
                    "Go right",
                    "This way",
                    "Follow me",
                    "Lead the way",
                    "Stay at this depth",
                    "Level off",
                    "Head to shore",
                    "Head to boat",
                    "Against current",
                    "With current",
                    "Circle the reef",
                    "Through the passage",
                    "Around the wreck",
                    "Back to line",
                    "To the anchor",
                    "Mid-water crossing",
                    "Follow the wall",
                    "Over the ridge",
                    "Under the arch",
                    "Into the cavern",
                    "Exit here",
                    "Compass heading north",
                    "Compass heading south",
                    "Shallow route",
                    "Deep route",
                    "Shortcut home",
                ],
            ),
            Category::Buddy => (
                "buddy",
                &[
                    "Are you OK?",
                    "I am OK",
                    "Buddy up",
                    "Stay close",
                    "Watch me",
                    "Watch my bubbles",
                    "Hold hands",
                    "Link arms",
                    "You lead",
                    "I lead",
                    "Stay behind me",
                    "Next to me",
                    "Check my back",
                    "Check my valve",
                    "Photograph me",
                    "Wait for me",
                    "Slow down",
                    "Speed up",
                    "Meet at line",
                    "Buddy check",
                    "Signal the group",
                    "Count heads",
                    "Pair with them",
                    "Three-person team",
                    "Close formation",
                    "Spread out",
                    "Hold position",
                    "Rotate leader",
                    "Eyes on me",
                    "Buddy line on",
                ],
            ),
            Category::MarineLife => (
                "marine-life",
                &[
                    "Shark",
                    "Turtle",
                    "Octopus",
                    "Eel",
                    "Ray",
                    "Dolphin",
                    "Whale",
                    "Seahorse",
                    "Lionfish - caution",
                    "Jellyfish - caution",
                    "Stonefish - danger",
                    "Fire coral - avoid",
                    "School of fish",
                    "Big fish",
                    "Small critter",
                    "Nudibranch",
                    "Crab",
                    "Lobster",
                    "Anemone",
                    "Coral garden",
                    "Sea urchin - careful",
                    "Barracuda",
                    "Grouper",
                    "Manta",
                    "Seal",
                    "Look under ledge",
                    "In the blue",
                    "On the sand",
                    "Camouflaged - look close",
                    "Rare find",
                ],
            ),
            Category::Equipment => (
                "equipment",
                &[
                    "Mask flooding",
                    "Fin strap loose",
                    "BCD inflating",
                    "BCD not holding air",
                    "Weight belt slipping",
                    "Drop weights",
                    "Computer error",
                    "Torch failing",
                    "Camera issue",
                    "Reel jammed",
                    "SMB deploy",
                    "Dry suit leak",
                    "Glove torn",
                    "Hood squeeze",
                    "Strap broken",
                    "Clip lost",
                    "Spare mask",
                    "Check my tank band",
                    "Console stuck",
                    "Compass broken",
                    "Battery low",
                    "Memory card full",
                    "Strobe misfire",
                    "Knife needed",
                    "Backup light on",
                    "Check my hose",
                    "Inflator stuck",
                    "Dump valve leak",
                    "Tank slipping",
                    "Mouthpiece torn",
                ],
            ),
            Category::Condition => (
                "condition",
                &[
                    "I am cold",
                    "I am tired",
                    "Cramp in leg",
                    "Ear problem",
                    "Sinus pain",
                    "Dizzy",
                    "Nauseous",
                    "Narced - going up",
                    "Breathing hard",
                    "Heart racing",
                    "Feeling great",
                    "Need a rest",
                    "Vertigo",
                    "Numb fingers",
                    "Headache",
                    "Seasick",
                    "Too much weight",
                    "Too light",
                    "Overheating",
                    "Hungry - ending soon",
                    "Thirsty",
                    "Leg asleep",
                    "Shoulder pain",
                    "Back pain",
                    "All good",
                    "Ears OK now",
                    "Warming up",
                    "Catching breath",
                    "Comfortable depth",
                    "Ready to continue",
                ],
            ),
            Category::General => (
                "general",
                &[
                    "Yes",
                    "No",
                    "Maybe",
                    "Wait",
                    "Hurry",
                    "Look",
                    "Listen",
                    "Come here",
                    "Go away",
                    "Good job",
                    "Thank you",
                    "Sorry",
                    "How deep?",
                    "What time?",
                    "Five minutes",
                    "Ten minutes",
                    "Half hour",
                    "Turn the dive",
                    "Safety stop now",
                    "Surface interval",
                    "Log this",
                    "Mark the spot",
                    "Take a photo",
                    "Record video",
                    "Practice drill",
                    "Training exercise",
                    "Fun dive",
                    "Work dive",
                    "Night signal",
                    "End of dive",
                ],
            ),
        }
    }
}

/// Total number of messages in the codebook.
pub const MESSAGE_COUNT: usize = 240;

/// A message in the codebook.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Message {
    /// Message ID (0..240), what goes on the air.
    pub id: u8,
    /// Category.
    pub category: Category,
    /// Display text.
    pub text: &'static str,
}

/// Returns the full 240-message codebook, IDs assigned category by
/// category in [`Category::ALL`] order.
pub fn codebook() -> Vec<Message> {
    let mut out = Vec::with_capacity(MESSAGE_COUNT);
    let mut id = 0u8;
    for cat in Category::ALL {
        let (_, texts) = cat.stem();
        for &text in texts {
            out.push(Message {
                id,
                category: cat,
                text,
            });
            id = id.wrapping_add(1);
        }
    }
    out
}

/// Looks up a message by ID.
pub fn by_id(id: u8) -> Option<Message> {
    let book = codebook();
    book.get(id as usize).copied()
}

/// Looks up messages by category.
pub fn by_category(cat: Category) -> Vec<Message> {
    codebook()
        .into_iter()
        .filter(|m| m.category == cat)
        .collect()
}

/// The 20 most common signals, surfaced prominently in the app UI
/// (recreational divers use 10–20 signals day to day).
pub fn common_messages() -> Vec<Message> {
    let book = codebook();
    let picks: [&str; 20] = [
        "Are you OK?",
        "I am OK",
        "Go up",
        "Go down",
        "Out of air",
        "Share air",
        "Emergency - help",
        "Stop - stay put",
        "Turn around",
        "This way",
        "Follow me",
        "Stay close",
        "Air OK",
        "50 bar remaining",
        "Half tank",
        "Check your air",
        "Yes",
        "No",
        "Wait",
        "End of dive",
    ];
    picks
        .iter()
        .map(|&t| {
            *book
                .iter()
                .find(|m| m.text == t)
                .expect("common message in codebook")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codebook_has_exactly_240_messages() {
        assert_eq!(codebook().len(), MESSAGE_COUNT);
    }

    #[test]
    fn ids_are_dense_and_unique() {
        let book = codebook();
        for (i, m) in book.iter().enumerate() {
            assert_eq!(m.id as usize, i);
        }
    }

    #[test]
    fn eight_categories_all_nonempty() {
        for cat in Category::ALL {
            let msgs = by_category(cat);
            assert!(msgs.len() >= 20, "{cat:?} has only {}", msgs.len());
        }
    }

    #[test]
    fn ids_fit_in_eight_bits() {
        // 240 <= 256: a message ID fits one byte, two per 16-bit packet
        const { assert!(MESSAGE_COUNT <= 256) };
        let last = codebook().last().unwrap().id;
        assert_eq!(last as usize, MESSAGE_COUNT - 1);
    }

    #[test]
    fn common_list_has_20_unique_messages() {
        let common = common_messages();
        assert_eq!(common.len(), 20);
        let mut ids: Vec<u8> = common.iter().map(|m| m.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 20);
    }

    #[test]
    fn by_id_roundtrips() {
        for m in codebook() {
            assert_eq!(by_id(m.id), Some(m));
        }
        assert_eq!(by_id(240), None);
    }

    #[test]
    fn texts_are_unique() {
        let book = codebook();
        for (i, a) in book.iter().enumerate() {
            for b in &book[i + 1..] {
                assert_ne!(a.text, b.text, "duplicate text {:?}", a.text);
            }
        }
    }
}
