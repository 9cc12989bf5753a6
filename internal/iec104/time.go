package iec104

import (
	"errors"
	"time"
)

// ErrShortTime is returned when a time tag is truncated.
var ErrShortTime = errors.New("iec104: truncated time tag")

var (
	errTimeMillis = errors.New("iec104: CP56Time2a milliseconds out of range")
	errTimeMinute = errors.New("iec104: CP56Time2a minute out of range")
	errTimeHour   = errors.New("iec104: CP56Time2a hour out of range")
	errTimeDay    = errors.New("iec104: CP56Time2a day out of range")
	errTimeMonth  = errors.New("iec104: CP56Time2a month out of range")
)

// CP56Time2a is the 7-octet absolute time tag used by the *_TB_1 /
// *_TD_1 / *_TE_1 / *_TF_1 types: milliseconds within the minute,
// minute (with invalid bit), hour (with summer-time bit), day of month
// plus day of week, month, and two-digit year.
type CP56Time2a struct {
	Time    time.Time
	Invalid bool // IV bit on the minute octet
	Summer  bool // SU bit on the hour octet
}

// EncodeCP56Time2a writes t into 7 octets of dst.
func EncodeCP56Time2a(dst []byte, t CP56Time2a) {
	ms := uint16(t.Time.Second()*1000 + t.Time.Nanosecond()/1e6)
	dst[0] = byte(ms)
	dst[1] = byte(ms >> 8)
	min := byte(t.Time.Minute()) & 0x3F
	if t.Invalid {
		min |= 0x80
	}
	dst[2] = min
	hour := byte(t.Time.Hour()) & 0x1F
	if t.Summer {
		hour |= 0x80
	}
	dst[3] = hour
	dow := byte(t.Time.Weekday())
	if dow == 0 {
		dow = 7 // the standard numbers Monday=1 .. Sunday=7
	}
	dst[4] = byte(t.Time.Day())&0x1F | dow<<5
	dst[5] = byte(t.Time.Month()) & 0x0F
	dst[6] = byte(t.Time.Year()%100) & 0x7F
}

// DecodeCP56Time2a parses a 7-octet CP56Time2a. Years 00-69 map to
// 2000-2069 and 70-99 to 1970-1999, matching common practice.
func DecodeCP56Time2a(b []byte) (CP56Time2a, error) {
	if len(b) < 7 {
		return CP56Time2a{}, ErrShortTime
	}
	ms := int(b[0]) | int(b[1])<<8
	if ms > 59999 {
		return CP56Time2a{}, errTimeMillis
	}
	minute := int(b[2] & 0x3F)
	if minute > 59 {
		return CP56Time2a{}, errTimeMinute
	}
	hour := int(b[3] & 0x1F)
	if hour > 23 {
		return CP56Time2a{}, errTimeHour
	}
	day := int(b[4] & 0x1F)
	if day < 1 || day > 31 {
		return CP56Time2a{}, errTimeDay
	}
	month := int(b[5] & 0x0F)
	if month < 1 || month > 12 {
		return CP56Time2a{}, errTimeMonth
	}
	yy := int(b[6] & 0x7F)
	year := 2000 + yy
	if yy >= 70 {
		year = 1900 + yy
	}
	t := time.Date(year, time.Month(month), day, hour, minute, ms/1000, ms%1000*1e6, time.UTC)
	return CP56Time2a{
		Time:    t,
		Invalid: b[2]&0x80 != 0,
		Summer:  b[3]&0x80 != 0,
	}, nil
}

// CP24Time2a is the 3-octet relative time tag (milliseconds + minute).
type CP24Time2a struct {
	Millis  uint16 // milliseconds within the minute, 0..59999
	Minute  uint8  // 0..59
	Invalid bool
}

// EncodeCP24Time2a writes t into 3 octets of dst.
func EncodeCP24Time2a(dst []byte, t CP24Time2a) {
	dst[0] = byte(t.Millis)
	dst[1] = byte(t.Millis >> 8)
	m := t.Minute & 0x3F
	if t.Invalid {
		m |= 0x80
	}
	dst[2] = m
}

// DecodeCP24Time2a parses a 3-octet CP24Time2a.
func DecodeCP24Time2a(b []byte) (CP24Time2a, error) {
	if len(b) < 3 {
		return CP24Time2a{}, ErrShortTime
	}
	return CP24Time2a{
		Millis:  uint16(b[0]) | uint16(b[1])<<8,
		Minute:  b[2] & 0x3F,
		Invalid: b[2]&0x80 != 0,
	}, nil
}
